open! Import
module Network = Ultraspan_congest.Network

type outcome = {
  spanner : Spanner.t;
  network_stats : Network.stats;
}

(* message tags *)
let tag_cluster = 0 (* payload: [| tag; cluster_id |] *)
let tag_edge_died = 1 (* payload: [| tag |] *)
let notice = [| tag_edge_died |]

(* per-arc flag bits *)
let dead = 1 (* the edge died *)
let kept = 2 (* the edge is a spanner edge (local output) *)

(* Per-domain scratch of the decision step: cluster [c] was met in the
   current step iff [mark.(c) >= base], and its edges die iff
   [mark.(c) = base + 1].  Each step raises [base] by 2, which forgets all
   earlier marks in O(1).  The array grows to the largest [n] served. *)
type marks = { mutable mark : int array; mutable base : int }

let marks_key = Domain.DLS.new_key (fun () -> { mark = [||]; base = 0 })

let fresh_marks n =
  let s = Domain.DLS.get marks_key in
  if Array.length s.mark < n then begin
    s.mark <- Array.make n 0;
    s.base <- 0
  end;
  s.base <- s.base + 2;
  s

let run ?trace ?metrics ?engine ?jobs ~seed ~k g =
  if k < 1 then invalid_arg "Bs_distributed.run: k >= 1";
  let n = Graph.n g in
  let p = float_of_int (max 2 n) ** (-1.0 /. float_of_int k) in
  (* Shared pseudo-randomness: every node evaluates the same family member. *)
  let hash = Util.Hash_family.create ~degree:7 (Rng.create seed) in
  let threshold = Util.Hash_family.threshold_of_prob p in
  let sampled_cluster ~iter c =
    (* last iteration samples nothing, as in the paper *)
    iter < k
    && Util.Hash_family.indicator hash ~threshold ((c * 131) + iter)
  in
  let { Graph.off; eid; _ } = Graph.csr g in
  let weight a = Graph.weight g eid.(a) in
  (* Node [v]'s knowledge of its incident edges is its own slice
     [off.(v), off.(v+1)) of these per-arc arrays; no node touches another
     node's slice.  The node state proper is its cluster id, -1 once it
     died. *)
  let arcs = Graph.arc_count g in
  (* the cluster each neighbour announced this iteration, -1 if none *)
  let nbr_cluster = Array.make arcs (-1) in
  (* [dead] and [kept] bits *)
  let flags = Bytes.make arcs '\000' in
  (* the node's arcs in (weight, edge id) order *)
  let order = Array.init arcs Fun.id in
  let has a bit = Char.code (Bytes.unsafe_get flags a) land bit <> 0 in
  let set a bit =
    Bytes.unsafe_set flags a
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get flags a) lor bit))
  in
  let init _ v =
    (* The decision order is static local knowledge: sort it once.  Slices
       are in ascending edge-id order, so on unit weights (and wherever
       weights do not decrease along the slice) it is the slice itself. *)
    let lo = off.(v) and hi = off.(v + 1) in
    let cmp a b =
      let c = Int.compare (weight a) (weight b) in
      if c <> 0 then c else Int.compare eid.(a) eid.(b)
    in
    let sorted = ref true in
    for a = lo + 1 to hi - 1 do
      if cmp (a - 1) a > 0 then sorted := false
    done;
    if not !sorted then begin
      let s = Array.sub order lo (hi - lo) in
      Array.sort cmp s;
      Array.blit s 0 order lo (hi - lo)
    end;
    v
  in
  (* [payload] along the arcs of [lo, hi) selected by [pick], in
     ascending neighbour order. *)
  let send mb lo hi payload pick =
    for a = lo to hi - 1 do
      if pick a then Network.send mb ~arc:a payload
    done
  in
  let round _ ~round ~me cluster mb =
    let iter = (round / 2) + 1 in
    if iter > k || cluster < 0 then
      { Network.state = cluster; halt = true }
    else begin
      let lo = off.(me) and hi = off.(me + 1) in
      if round mod 2 = 0 then begin
        (* Broadcast phase.  First fold in edge-death notices from the
           previous decision phase. *)
        Network.fold mb
          (fun () c ->
            if Network.word mb c 0 = tag_edge_died then
              set (Network.arc mb c) dead)
          ();
        send mb lo hi [| tag_cluster; cluster |] (fun a -> not (has a dead));
        { Network.state = cluster; halt = false }
      end
      else begin
        (* Decision phase: inbox holds neighbours' cluster ids. *)
        Array.fill nbr_cluster lo (hi - lo) (-1);
        Network.fold mb
          (fun () c ->
            if Network.word mb c 0 = tag_cluster then
              nbr_cluster.(Network.arc mb c) <- Network.word mb c 1)
          ();
        if sampled_cluster ~iter cluster then
          (* nothing to do; stay alive. *)
          { Network.state = cluster; halt = iter = k }
        else begin
          (* Scan the arcs in (weight, edge id) order: the first arc met
             into each adjacent cluster is its minimum edge.  Stop at the
             first sampled cluster. *)
          let mk = fresh_marks n in
          let mark = mk.mark and b = mk.base in
          let first = ref (-1) and p = ref lo in
          while !first < 0 && !p < hi do
            let c = nbr_cluster.(order.(!p)) in
            if c >= 0 && mark.(c) < b then begin
              mark.(c) <- b;
              if sampled_cluster ~iter c then first := !p
            end;
            incr p
          done;
          if !first >= 0 then begin
            (* join c_i; add e_i and the minimum edge of every cluster
               with strictly smaller weight; edges to all those clusters
               die *)
            let ai = order.(!first) in
            let ci = nbr_cluster.(ai) and wi = weight ai in
            for p = lo to !first - 1 do
              let a = order.(p) in
              let c = nbr_cluster.(a) in
              if c >= 0 && mark.(c) = b && weight a < wi then begin
                mark.(c) <- b + 1;
                set a kept
              end
            done;
            mark.(ci) <- b + 1;
            set ai kept;
            let dies a =
              let c = nbr_cluster.(a) in
              c >= 0 && mark.(c) = b + 1
            in
            for a = lo to hi - 1 do
              if dies a then set a dead
            done;
            send mb lo hi notice dies;
            { Network.state = ci; halt = iter = k }
          end
          else begin
            (* die: add min edge per adjacent cluster, all edges die *)
            for p = lo to hi - 1 do
              let a = order.(p) in
              let c = nbr_cluster.(a) in
              if c >= 0 && mark.(c) = b then begin
                mark.(c) <- b + 1;
                set a kept
              end
            done;
            send mb lo hi notice (fun a ->
                nbr_cluster.(a) >= 0 && not (has a dead));
            { Network.state = -1; halt = true }
          end
        end
      end
    end
  in
  let _, network_stats =
    Network.run ~word_limit:4 ?trace ?metrics ?engine ?jobs g
      { Network.init; round }
  in
  (* Collect the distributed output. *)
  let keep = Array.make (Graph.m g) false in
  for a = 0 to arcs - 1 do
    if has a kept then keep.(eid.(a)) <- true
  done;
  let rounds = Ultraspan_congest.Rounds.create () in
  Ultraspan_congest.Rounds.span rounds "bs-congest" (fun () ->
      Ultraspan_congest.Rounds.charge ~label:"protocol" rounds
        network_stats.Network.rounds);
  { spanner = { Spanner.keep; rounds }; network_stats }
