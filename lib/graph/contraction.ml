type t = {
  base : Graph.t;
  quotient : Graph.t;
  cluster_of : int array;
  repr_eid : int array;
}

(* Per-domain scratch, grown to the largest graph served: the ids of the
   inter-cluster edges in two buffers ([ids], [tmp]) and the bucket
   cursors of the two radix passes, keyed by the smaller ([lo]) and the
   larger ([hi]) endpoint cluster. *)
type scratch = {
  mutable ids : int array;
  mutable tmp : int array;
  mutable lo : int array;
  mutable hi : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { ids = [||]; tmp = [||]; lo = [||]; hi = [||] })

let domain_scratch ~m ~count =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.ids < m then begin
    s.ids <- Array.make m 0;
    s.tmp <- Array.make m 0
  end;
  if Array.length s.lo <= count then begin
    s.lo <- Array.make (count + 1) 0;
    s.hi <- Array.make (count + 1) 0
  end;
  s

(* Turn bucket counts stored at [c + 1] (a.(0) = 0) into start cursors
   at [c]. *)
let cursors a count =
  for c = 1 to count do
    a.(c) <- a.(c) + a.(c - 1)
  done

let of_cluster_of ?(allow = fun _ -> true) g cluster_of count =
  if Array.length cluster_of <> Graph.n g then
    invalid_arg "Contraction.of_cluster_of: length mismatch";
  Array.iter
    (fun c ->
      if c < -1 || c >= count then
        invalid_arg "Contraction.of_cluster_of: cluster id out of range")
    cluster_of;
  let edges = Graph.edges g in
  let m = Array.length edges in
  let s = domain_scratch ~m ~count in
  let ids = s.ids and tmp = s.tmp and lo = s.lo and hi = s.hi in
  Array.fill lo 0 (count + 1) 0;
  Array.fill hi 0 (count + 1) 0;
  (* The inter-cluster edges in id order, counted by both endpoint
     clusters. *)
  let k = ref 0 in
  for eid = 0 to m - 1 do
    let e = edges.(eid) in
    let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
    if cu >= 0 && cv >= 0 && cu <> cv && allow eid then begin
      let a = if cu < cv then cu else cv and b = if cu < cv then cv else cu in
      lo.(a + 1) <- lo.(a + 1) + 1;
      hi.(b + 1) <- hi.(b + 1) + 1;
      ids.(!k) <- eid;
      incr k
    end
  done;
  let k = !k in
  cursors lo count;
  cursors hi count;
  (* Two stable counting passes, by the larger cluster and then by the
     smaller, leave [ids] sorted by (smaller, larger, edge id). *)
  for i = 0 to k - 1 do
    let eid = ids.(i) in
    let e = edges.(eid) in
    let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
    let b = if cu < cv then cv else cu in
    tmp.(hi.(b)) <- eid;
    hi.(b) <- hi.(b) + 1
  done;
  for i = 0 to k - 1 do
    let eid = tmp.(i) in
    let e = edges.(eid) in
    let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
    let a = if cu < cv then cu else cv in
    ids.(lo.(a)) <- eid;
    lo.(a) <- lo.(a) + 1
  done;
  (* One representative per run of equal cluster pairs: the lightest edge,
     the smallest id among equally light ones (the run is in id order).
     The representatives overwrite the front of [ids], which the scan has
     already passed. *)
  let pair eid =
    let e = edges.(eid) in
    let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
    if cu < cv then (cu * count) + cv else (cv * count) + cu
  in
  let q = ref 0 and i = ref 0 in
  while !i < k do
    let key = pair ids.(!i) in
    let best = ref ids.(!i) in
    incr i;
    while !i < k && pair ids.(!i) = key do
      if edges.(ids.(!i)).Graph.w < edges.(!best).Graph.w then best := ids.(!i);
      incr i
    done;
    ids.(!q) <- !best;
    incr q
  done;
  let repr_eid = Array.sub ids 0 !q in
  (* [repr_eid] is in (smaller, larger) cluster order, which is the
     canonical edge order, so quotient edge i is the pair of repr_eid.(i). *)
  let quotient =
    Graph.of_edge_iter ~n:count (fun f ->
        Array.iter
          (fun eid ->
            let e = edges.(eid) in
            f cluster_of.(e.Graph.u) cluster_of.(e.Graph.v) e.Graph.w)
          repr_eid)
  in
  Array.iteri
    (fun qid base_eid ->
      let qe = Graph.edge quotient qid and e = edges.(base_eid) in
      let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
      assert (
        (qe.Graph.u = cu && qe.Graph.v = cv)
        || (qe.Graph.u = cv && qe.Graph.v = cu)))
    repr_eid;
  { base = g; quotient; cluster_of = Array.copy cluster_of; repr_eid }

let make g (p : Partition.t) = of_cluster_of g p.Partition.cluster_of (Partition.count p)

let pull_back t qids = List.map (fun qid -> t.repr_eid.(qid)) qids
