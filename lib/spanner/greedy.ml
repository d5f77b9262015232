open! Import

let pass ~k g keep candidates =
  Array.sort
    (fun a b ->
      let c = Int.compare (Graph.weight g a) (Graph.weight g b) in
      if c <> 0 then c else Int.compare a b)
    candidates;
  let alpha = (2 * k) - 1 in
  let added = ref 0 and scanned = ref 0 in
  Array.iter
    (fun e ->
      if not keep.(e) then begin
        let { Graph.u; v; w; _ } = Graph.edge g e in
        let bound = alpha * w in
        scanned :=
          !scanned + Dijkstra.search ~keep ~budget:bound ~targets:[| v |] g u;
        if Dijkstra.dist v > bound then begin
          keep.(e) <- true;
          incr added
        end
      end)
    candidates;
  (!added, !scanned)

let run ~k g =
  if k < 1 then invalid_arg "Greedy.run: k >= 1";
  let m = Graph.m g in
  let keep = Array.make m false in
  ignore (pass ~k g keep (Array.init m Fun.id));
  (* Rounds: the greedy algorithm is sequential; charge the trivial
     simulation bound of one round per edge decision (it is a baseline,
     not a distributed algorithm). *)
  let rounds = Rounds.create () in
  Rounds.charge ~label:"greedy:sequential" rounds m;
  { Spanner.keep; rounds }

let girth_exceeds g keep c =
  (* For every kept edge, removing it must leave the endpoints at hop
     distance >= c - 1 in the kept subgraph (otherwise a short cycle
     exists). *)
  let ok = ref true in
  Array.iteri
    (fun eid kept ->
      if kept && !ok then begin
        let u, v = Graph.endpoints g eid in
        let dist =
          Bfs.distances ~allow:(fun e -> keep.(e) && e <> eid) g u
        in
        if dist.(v) <> -1 && dist.(v) + 1 <= c then ok := false
      end)
    keep;
  !ok
