module Parallel = Ultraspan_util.Parallel

(* Dijkstra from [v] over the kept edges that stops as soon as every
   vertex marked in [is_target] is settled (their distances are then
   final), instead of exhausting the whole subgraph.  Vertices the queue
   never reaches keep [Dijkstra.infinity]: when the queue empties, every
   vertex with a finite tentative distance has been settled, so unsettled
   targets are exactly the unreachable ones.  [is_target] is consumed. *)
let distances_to_targets ~keep g v ~is_target ~remaining =
  let n = Graph.n g in
  let dist = Array.make n Dijkstra.infinity in
  let settled = Ultraspan_util.Bitset.create n in
  let pq = Ultraspan_util.Pqueue.create ~cmp:compare () in
  dist.(v) <- 0;
  Ultraspan_util.Pqueue.push pq 0 v;
  let remaining = ref remaining in
  while !remaining > 0 && not (Ultraspan_util.Pqueue.is_empty pq) do
    let d, x = Ultraspan_util.Pqueue.pop_exn pq in
    if not (Ultraspan_util.Bitset.mem settled x) then begin
      Ultraspan_util.Bitset.add settled x;
      if is_target.(x) then begin
        is_target.(x) <- false;
        decr remaining
      end;
      if !remaining > 0 then
        Graph.iter_adj g x (fun u eid ->
            if keep.(eid) then begin
              let nd = d + Graph.weight g eid in
              if nd < dist.(u) then begin
                dist.(u) <- nd;
                Ultraspan_util.Pqueue.push pq nd u
              end
            end)
    end
  done;
  dist

let vertex_worst g keep v =
  (* Worst stretch among edges (v,u) with v < u (each edge charged once).
     If every such edge is kept, each has d_H <= w, so stretch <= 1 and the
     Dijkstra can be skipped. *)
  let needs_check = ref false in
  let kept_count = ref 0 in
  Graph.iter_adj g v (fun u eid ->
      if u > v then
        if keep.(eid) then incr kept_count else needs_check := true);
  if not !needs_check then
    if !kept_count = 0 then (0.0, 0.0, 0)
    else (1.0, float_of_int !kept_count, !kept_count)
  else begin
    (* Early exit: only the distances of the neighbors u > v are read, so
       the search stops once they are all settled. *)
    let is_target = Array.make (Graph.n g) false in
    let remaining = ref 0 in
    Graph.iter_adj g v (fun u _ ->
        if u > v && not is_target.(u) then begin
          is_target.(u) <- true;
          incr remaining
        end);
    let dist =
      distances_to_targets ~keep g v ~is_target ~remaining:!remaining
    in
    let worst = ref 0.0 and total = ref 0.0 and count = ref 0 in
    Graph.iter_adj g v (fun u eid ->
        if u > v then begin
          let w = Graph.weight g eid in
          let s =
            if dist.(u) = Dijkstra.infinity then Float.infinity
            else if w = 0 then if dist.(u) = 0 then 1.0 else Float.infinity
            else float_of_int dist.(u) /. float_of_int w
          in
          if s > !worst then worst := s;
          total := !total +. s;
          incr count
        end);
    (!worst, !total, !count)
  end

let check_mask g keep =
  if Array.length keep <> Graph.m g then
    invalid_arg "Stretch: mask length mismatch"

(* The per-vertex checks are independent, so they fan across the domain
   pool; both reductions are bit-identical to the sequential loop (max is
   order-free, the mean's float sums are reduced in vertex order). *)

let max_edge_stretch ?jobs g keep =
  check_mask g keep;
  let worst =
    Parallel.map_reduce ?jobs ~n:(Graph.n g)
      ~map:(fun v ->
        let w, _, _ = vertex_worst g keep v in
        w)
      ~init:0.0
      ~reduce:(fun a w -> if w > a then w else a)
  in
  if Graph.m g = 0 then 1.0 else worst

let mean_edge_stretch ?jobs g keep =
  check_mask g keep;
  let total, count =
    Parallel.map_reduce ?jobs ~n:(Graph.n g)
      ~map:(fun v ->
        let _, t, c = vertex_worst g keep v in
        (t, c))
      ~init:(0.0, 0)
      ~reduce:(fun (total, count) (t, c) -> (total +. t, count + c))
  in
  if count = 0 then 1.0 else total /. float_of_int count

let sampled_edge_stretch ?jobs ~rng ~samples g keep =
  check_mask g keep;
  let n = Graph.n g in
  if n = 0 || Graph.m g = 0 then 1.0
  else begin
    (* Draw the sample sequence first (same rng consumption as the
       sequential version), then fan the per-vertex checks out. *)
    let sample = Array.init samples (fun _ -> Ultraspan_util.Rng.int rng n) in
    Parallel.map_reduce ?jobs ~n:samples
      ~map:(fun i ->
        let w, _, _ = vertex_worst g keep sample.(i) in
        w)
      ~init:0.0
      ~reduce:(fun a w -> if w > a then w else a)
  end

let check_stretch ?jobs g keep alpha =
  max_edge_stretch ?jobs g keep <= alpha +. 1e-9
