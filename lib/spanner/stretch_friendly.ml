open! Import

type info = { iterations : int; cv_iterations : int; rounds : Rounds.t }

type merge_strategy = Matched | Naive_star

(* Re-root the tree of one cluster at [new_root]: reverse the parent
   pointers along the path from [new_root] to the old root. *)
let reroot parent parent_eid new_root =
  let rec go v prev prev_eid =
    let next = parent.(v) in
    let next_eid = parent_eid.(v) in
    parent.(v) <- prev;
    parent_eid.(v) <- prev_eid;
    if next <> -1 then go next v next_eid
  in
  go new_root (-1) (-1)

(* Per-domain scratch of [partition_with_strategy], grown to the largest
   graph served.  Every array is indexed by the clusters of the current
   iteration (at most n of them), of which it uses the first [nc]. *)
type scratch = {
  size : int array;
  best_w : int array;  (* weight of the minimum boundary edge *)
  out_eid : int array;  (* its id, -1 when the cluster has none *)
  mate : int array;
  proposer : int array;  (* smallest proposer of the current colour *)
  new_of : int array;
  new_root : int array;
  merge_src : bool array;
}

let make_scratch n =
  {
    size = Array.make n 0;
    best_w = Array.make n 0;
    out_eid = Array.make n 0;
    mate = Array.make n 0;
    proposer = Array.make n 0;
    new_of = Array.make n 0;
    new_root = Array.make n 0;
    merge_src = Array.make n false;
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let domain_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.size >= n then s
  else begin
    let s = make_scratch n in
    Domain.DLS.set scratch_key s;
    s
  end

(* Step (2) of an iteration: the minimum boundary edge of every cluster
   [c < nc] in (weight, edge id) order, or -1.  Edges arrive in id order,
   so on a weight tie the first one stays. *)
let fill_min_boundary edges cluster_of ~best_w ~out_eid nc =
  Array.fill out_eid 0 nc (-1);
  Array.iter
    (fun e ->
      let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
      if cu <> cv then begin
        let w = e.Graph.w in
        if out_eid.(cu) < 0 || w < best_w.(cu) then begin
          best_w.(cu) <- w;
          out_eid.(cu) <- e.Graph.id
        end;
        if out_eid.(cv) < 0 || w < best_w.(cv) then begin
          best_w.(cv) <- w;
          out_eid.(cv) <- e.Graph.id
        end
      end)
    edges

let min_boundary_edges g cluster_of nc =
  if Array.length cluster_of <> Graph.n g then
    invalid_arg "Stretch_friendly.min_boundary_edges: length mismatch";
  Array.iter
    (fun c ->
      if c < 0 || c >= nc then
        invalid_arg
          "Stretch_friendly.min_boundary_edges: cluster id out of range")
    cluster_of;
  let out_eid = Array.make nc (-1) in
  fill_min_boundary (Graph.edges g) cluster_of ~best_w:(Array.make nc 0)
    ~out_eid nc;
  out_eid

(* ceil (log2 t): the bit length of t - 1. *)
let iterations t =
  if t < 1 then invalid_arg "Stretch_friendly.iterations: t >= 1";
  let rec go i = if (t - 1) lsr i = 0 then i else go (i + 1) in
  go 0

(* The partition after [info.iterations] merging iterations.  [result]
   hands out [part] and [info] themselves and sets [shared]; the next
   [merge] then works on copies, so what was handed out never changes. *)
type state = {
  strategy : merge_strategy;
  mutable part : Partition.t;
  mutable info : info;
  mutable shared : bool;
}

let start ~strategy g =
  {
    strategy;
    part = Partition.trivial g;
    info = { iterations = 0; cv_iterations = 0; rounds = Rounds.create () };
    shared = false;
  }

let result st =
  st.shared <- true;
  (st.part, st.info)

(* A cluster that may merge in the iteration under way: smaller than its
   threshold 2^i, with a pointer to follow. *)
let small st ~size ~succ c =
  size.(c) < 1 lsl (st.info.iterations + 1) && succ.(c) >= 0

(* Step (5) of an iteration, given steps (1)-(4): the cluster sizes, the
   out-edge and pointer target of every cluster, and the matching. *)
let merge st ~size ~out_eid ~succ ~mate ~cv_iterations =
  if st.shared then begin
    let p = st.part and rounds = Rounds.create () in
    st.part <-
      {
        p with
        cluster_of = Array.copy p.cluster_of;
        parent = Array.copy p.parent;
        parent_eid = Array.copy p.parent_eid;
      };
    Rounds.merge_into rounds st.info.rounds;
    st.info <- { st.info with rounds };
    st.shared <- false
  end;
  let { Partition.g; cluster_of; parent; parent_eid; roots } = st.part in
  let n = Graph.n g and edges = Graph.edges g in
  let nc = Array.length roots in
  let s = domain_scratch n in
  let new_of = s.new_of and new_root = s.new_root in
  let merge_src = s.merge_src in
  let small = small st ~size ~succ in
  (* new_of.(c): the new cluster id of old cluster c.  Merge targets:
     matched pairs take the pointer target's root; large (or exempt)
     clusters stand alone; remaining small clusters follow their pointer
     (in the Matched strategy the target is immediately a standing
     cluster; in Naive_star pointers may chain, so we resolve them to
     their sink). *)
  Array.fill new_of 0 nc (-1);
  (* merge_src.(c): cluster c merges along its own pointer edge, so its
     tree is re-rooted at its endpoint and hung off the other side. *)
  Array.fill merge_src 0 nc false;
  let n_new = ref 0 in
  let fresh root =
    let id = !n_new in
    incr n_new;
    new_root.(id) <- root;
    id
  in
  (* A standing pair: c merges along its edge into d, and the pair is
     rooted at d's root. *)
  let pair c d =
    let id = fresh roots.(d) in
    new_of.(c) <- id;
    new_of.(d) <- id;
    merge_src.(c) <- true
  in
  (* Standing clusters: large/exempt ones stand alone. *)
  for c = 0 to nc - 1 do
    if not (small c) then new_of.(c) <- fresh roots.(c)
  done;
  (* Matched pairs: the proposer side (first in id order for mutual
     pointers) merges along its edge. *)
  for c = 0 to nc - 1 do
    if small c && mate.(c) >= 0 && succ.(c) = mate.(c) && new_of.(c) = -1
       && new_of.(mate.(c)) = -1
    then pair c mate.(c)
  done;
  (* Naive_star has no matching, so mutual small 2-cycles must still be
     collapsed into standing pairs to give the pointer chains a sink. *)
  (match st.strategy with
  | Matched -> ()
  | Naive_star ->
      for c = 0 to nc - 1 do
        let d = succ.(c) in
        if small c && new_of.(c) = -1 && small d && succ.(d) = c
           && new_of.(d) = -1 && c < d
        then pair c d
      done);
  (* Remaining small clusters follow pointers to a standing cluster. *)
  let rec resolve c =
    if new_of.(c) >= 0 then new_of.(c)
    else begin
      merge_src.(c) <- true;
      (match st.strategy with
      | Matched ->
          (* Maximality of the matching: the target already stands. *)
          assert (new_of.(succ.(c)) >= 0)
      | Naive_star -> ());
      let id = resolve succ.(c) in
      new_of.(c) <- id;
      id
    end
  in
  for c = 0 to nc - 1 do
    if new_of.(c) = -1 then ignore (resolve c)
  done;
  (* Tree surgery. *)
  for c = 0 to nc - 1 do
    if merge_src.(c) then begin
      let eid = out_eid.(c) in
      let e = edges.(eid) in
      let mine, theirs =
        if cluster_of.(e.Graph.u) = c then (e.Graph.u, e.Graph.v)
        else (e.Graph.v, e.Graph.u)
      in
      reroot parent parent_eid mine;
      parent.(mine) <- theirs;
      parent_eid.(mine) <- eid
    end
  done;
  (* Commit the new clustering. *)
  for v = 0 to n - 1 do
    cluster_of.(v) <- new_of.(cluster_of.(v))
  done;
  st.part <- { st.part with roots = Array.sub new_root 0 !n_new };
  let i = st.info.iterations + 1 and rounds = st.info.rounds in
  let cv_total = st.info.cv_iterations + cv_iterations in
  st.info <- { iterations = i; cv_iterations = cv_total; rounds };
  Rounds.span rounds "stretch-friendly" (fun () ->
      Rounds.span rounds (Printf.sprintf "iter-%d" i) (fun () ->
          Rounds.charge ~label:"sf:iteration" rounds
            ((2 * 3 * (1 lsl i)) + (cv_iterations + 6))))

(* Steps (1)-(4) computed centrally, then the shared step (5). *)
let advance st =
  let { Partition.g; cluster_of; roots; _ } = st.part in
  let edges = Graph.edges g and nc = Array.length roots in
  let s = domain_scratch (Graph.n g) in
  let size = s.size and best_w = s.best_w and out_eid = s.out_eid in
  let mate = s.mate and proposer = s.proposer in
  (* The cluster across edge [eid] from cluster [c]. *)
  let across c eid =
    let e = edges.(eid) in
    if cluster_of.(e.Graph.u) = c then cluster_of.(e.Graph.v)
    else cluster_of.(e.Graph.u)
  in
  (* (1) sizes *)
  Array.fill size 0 nc 0;
  Array.iter (fun c -> size.(c) <- size.(c) + 1) cluster_of;
  (* (2) minimum boundary edge per cluster, oriented out *)
  fill_min_boundary edges cluster_of ~best_w ~out_eid nc;
  let succ =
    Array.init nc (fun c -> if out_eid.(c) < 0 then -1 else across c out_eid.(c))
  in
  (* (3) 3-colouring of the pointer graph *)
  let coloring = Coloring.three_color ~n:nc ~succ in
  let colors = coloring.Coloring.colors in
  let small = small st ~size ~succ in
  (* (4) maximal matching between small clusters along pointer edges, one
     colour class at a time (proposer and target always differ in colour
     since the colouring is proper on pointer edges).  Each target takes
     its smallest proposer. *)
  Array.fill mate 0 nc (-1);
  (match st.strategy with
  | Naive_star -> ()
  | Matched ->
      for q = 0 to 2 do
        Array.fill proposer 0 nc (-1);
        for c = 0 to nc - 1 do
          if colors.(c) = q && small c && mate.(c) = -1 then begin
            let d = succ.(c) in
            if small d && mate.(d) = -1 && proposer.(d) < 0 then
              proposer.(d) <- c
          end
        done;
        for d = 0 to nc - 1 do
          let c = proposer.(d) in
          if mate.(d) = -1 && c >= 0 then begin
            mate.(d) <- c;
            mate.(c) <- d
          end
        done
      done);
  merge st ~size ~out_eid ~succ ~mate
    ~cv_iterations:coloring.Coloring.iterations

let partition_with_strategy ~strategy ~t g =
  let st = start ~strategy g in
  for _ = 1 to iterations t do
    advance st
  done;
  result st

let partition ~t g = partition_with_strategy ~strategy:Matched ~t g

(* Definition 3.4, checked exactly.  For each cluster, walk every vertex's
   tree path computing the maximum edge weight from the root down
   (max_to_root); then:
   - boundary edge {u∉C, v∈C} of weight w: max_to_root v <= w;
   - inside edge {u,v∈C} of weight w: max weight on the tree path u..v
     <= w, computed via the max-to-LCA trick using depths. *)
let is_stretch_friendly_subset g (p : Partition.t) ~consider =
  let n = Graph.n g in
  let depth = Partition.depths p in
  let max_up = Array.make n 0 in
  (* max edge weight on the path from v to the root *)
  let computed = Array.make n false in
  let rec fill v =
    if not computed.(v) then begin
      computed.(v) <- true;
      if p.Partition.parent.(v) <> -1 then begin
        fill p.Partition.parent.(v);
        max_up.(v) <-
          max
            (Graph.weight g p.Partition.parent_eid.(v))
            max_up.(p.Partition.parent.(v))
      end
    end
  in
  for v = 0 to n - 1 do
    if p.Partition.cluster_of.(v) >= 0 then fill v
  done;
  let path_max u v =
    (* max edge weight on the tree path between u and v (same cluster) *)
    let rec go u v acc =
      if u = v then acc
      else if depth.(u) >= depth.(v) then
        go p.Partition.parent.(u) v
          (max acc (Graph.weight g p.Partition.parent_eid.(u)))
      else
        go u p.Partition.parent.(v)
          (max acc (Graph.weight g p.Partition.parent_eid.(v)))
    in
    go u v 0
  in
  let ok = ref true in
  Graph.iter_edges g (fun e ->
      if consider e.Graph.id then begin
      let cu = p.Partition.cluster_of.(e.Graph.u)
      and cv = p.Partition.cluster_of.(e.Graph.v) in
      if cu >= 0 && cv >= 0 && cu = cv then begin
        (* inside edge *)
        if path_max e.Graph.u e.Graph.v > e.Graph.w then ok := false
      end
      else begin
        (* boundary edge of each clustered side *)
        if cu >= 0 && max_up.(e.Graph.u) > e.Graph.w then ok := false;
        if cv >= 0 && max_up.(e.Graph.v) > e.Graph.w then ok := false
      end
      end);
  !ok

let is_stretch_friendly g p =
  is_stretch_friendly_subset g p ~consider:(fun _ -> true)

let is_stretch_friendly_alive g state =
  let p = Bs_core.partition state in
  is_stretch_friendly_subset g p ~consider:(fun eid ->
      Bs_core.edge_alive state eid
      &&
      let u, v = Graph.endpoints g eid in
      Bs_core.vertex_alive state u && Bs_core.vertex_alive state v)
