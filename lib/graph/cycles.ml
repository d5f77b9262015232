(* BFS from each vertex; the first non-tree edge closing back into the BFS
   tree bounds the shortest cycle through the root.  The minimum over all
   roots is exact (standard argument: take a shortest cycle and root the
   BFS at one of its vertices). *)

let girth_from g root ~cap =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let parent_eid = Array.make n (-1) in
  let best = ref cap in
  let q = Queue.create () in
  dist.(root) <- 0;
  Queue.add root q;
  (try
     while not (Queue.is_empty q) do
       let v = Queue.pop q in
       if 2 * dist.(v) >= !best then raise Exit;
       Graph.iter_adj g v (fun u eid ->
           if eid <> parent_eid.(v) then begin
             if dist.(u) = -1 then begin
               dist.(u) <- dist.(v) + 1;
               parent_eid.(u) <- eid;
               Queue.add u q
             end
             else if dist.(u) >= dist.(v) then begin
               (* cycle through root of length <= d(v) + d(u) + 1 *)
               let len = dist.(v) + dist.(u) + 1 in
               if len < !best then best := len
             end
           end)
     done
   with Exit -> ());
  !best

let girth g =
  let best = ref max_int in
  for v = 0 to Graph.n g - 1 do
    best := girth_from g v ~cap:!best
  done;
  !best
