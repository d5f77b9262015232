module Parallel = Ultraspan_util.Parallel

let vertex_worst g keep v =
  (* Worst stretch among edges (v,u) with v < u (each edge charged once):
     destinations strictly increase along a CSR slice, so these are the
     arcs [lo .. hi - 1].  If every such edge is kept, each has d_H <= w,
     so stretch <= 1 and the search can be skipped. *)
  let { Graph.off; dst; eid; _ } = Graph.csr g in
  let hi = off.(v + 1) in
  let lo = ref off.(v) in
  while !lo < hi && dst.(!lo) < v do
    incr lo
  done;
  let lo = !lo in
  let count = hi - lo in
  let all_kept = ref true in
  for a = lo to hi - 1 do
    if not keep.(eid.(a)) then all_kept := false
  done;
  if !all_kept then
    if count = 0 then (0.0, 0.0, 0) else (1.0, float_of_int count, count)
  else begin
    (* only the distances of the neighbours u > v are read, so the search
       stops once they are all settled *)
    ignore (Dijkstra.search ~keep ~targets:(Array.sub dst lo count) g v);
    let worst = ref 0.0 and total = ref 0.0 in
    for a = lo to hi - 1 do
      let d = Dijkstra.dist dst.(a) and w = Graph.weight g eid.(a) in
      let s =
        if d = Dijkstra.infinity then Float.infinity
        else if w = 0 then if d = 0 then 1.0 else Float.infinity
        else float_of_int d /. float_of_int w
      in
      if s > !worst then worst := s;
      total := !total +. s
    done;
    (!worst, !total, count)
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
