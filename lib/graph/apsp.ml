module Parallel = Ultraspan_util.Parallel

let floyd_warshall g =
  let n = Graph.n g in
  let inf = Dijkstra.infinity in
  let d = Array.make_matrix n n inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges g (fun e ->
      if e.Graph.w < d.(e.Graph.u).(e.Graph.v) then begin
        d.(e.Graph.u).(e.Graph.v) <- e.Graph.w;
        d.(e.Graph.v).(e.Graph.u) <- e.Graph.w
      end);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if d.(i).(k) < inf then
        for j = 0 to n - 1 do
          if d.(k).(j) < inf && d.(i).(k) + d.(k).(j) < d.(i).(j) then
            d.(i).(j) <- d.(i).(k) + d.(k).(j)
        done
    done
  done;
  d

let multi_source ?jobs ?keep g sources =
  Parallel.map_array ?jobs (Array.length sources) (fun i ->
      Dijkstra.distances ?keep g sources.(i))

let by_dijkstra ?jobs ?keep g =
  Parallel.map_array ?jobs (Graph.n g) (fun v -> Dijkstra.distances ?keep g v)

let exact_pair_stretch ?jobs g keep =
  let n = Graph.n g in
  let dg = by_dijkstra ?jobs g in
  let dh = by_dijkstra ?jobs ~keep g in
  let worst = ref 1.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if dg.(u).(v) < Dijkstra.infinity && dg.(u).(v) > 0 then begin
        let s =
          if dh.(u).(v) = Dijkstra.infinity then Float.infinity
          else float_of_int dh.(u).(v) /. float_of_int dg.(u).(v)
        in
        if s > !worst then worst := s
      end
    done
  done;
  if n < 2 then 1.0 else !worst

let diameter ?jobs g =
  let n = Graph.n g in
  if n < 2 then 0
  else
    (* [Dijkstra.infinity] is [max_int], so a plain max propagates
       unreachability exactly like the sequential sticky-infinity loop. *)
    Parallel.map_reduce ?jobs ~n
      ~map:(fun v -> Array.fold_left max 0 (Dijkstra.distances g v))
      ~init:0 ~reduce:max
