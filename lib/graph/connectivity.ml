let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let label = !count in
      incr count;
      comp.(s) <- label;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        Graph.iter_adj g v (fun u _ ->
            if comp.(u) = -1 then begin
              comp.(u) <- label;
              Queue.add u q
            end)
      done
    end
  done;
  (comp, !count)

let is_connected g =
  let _, count = components g in
  count <= 1

let same_component g a b =
  let comp, _ = components g in
  comp.(a) = comp.(b)

let spans g keep =
  let uf_sub = Ultraspan_util.Union_find.create (Graph.n g) in
  Graph.iter_edges g (fun e ->
      if keep.(e.Graph.id) then
        ignore (Ultraspan_util.Union_find.union uf_sub e.Graph.u e.Graph.v));
  (* Every edge of g must connect vertices already joined by kept edges. *)
  let ok = ref true in
  Graph.iter_edges g (fun e ->
      if not (Ultraspan_util.Union_find.same uf_sub e.Graph.u e.Graph.v) then
        ok := false);
  !ok
