(* The CONGEST simulator driven natively: message-passing node programs for
   BFS, global aggregation and maximal matching, with per-round statistics —
   the model all the paper's round bounds live in.

   Run with:  dune exec examples/congest_demo.exe *)

open Ultraspan

let show name (stats : Network.stats) =
  Printf.printf "  %-22s rounds=%-5d messages=%-7d max words/msg=%d\n" name
    stats.Network.rounds stats.Network.messages stats.Network.max_words

let () =
  let g = Generators.torus 16 16 in
  Printf.printf "network: 16x16 torus (%d nodes, %d links)\n\n" (Graph.n g)
    (Graph.m g);

  print_endline "native CONGEST node programs:";
  let bfs, bfs_stats = Programs.bfs g ~root:0 in
  show "BFS tree" bfs_stats;
  Printf.printf "    depth of BFS tree: %d (graph eccentricity %d)\n"
    (Array.fold_left max 0 bfs.Programs.dist)
    (Bfs.eccentricity g 0);

  let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 1009) in
  let maxes, bc_stats = Programs.broadcast_max g ~values in
  show "broadcast max" bc_stats;
  Printf.printf "    agreed maximum: %d (expected %d)\n" maxes.(0)
    (Array.fold_left max 0 values);

  let mate, mm_stats = Programs.maximal_matching g in
  show "maximal matching" mm_stats;
  let matched = Array.fold_left (fun a m -> if m >= 0 then a + 1 else a) 0 mate in
  Printf.printf "    matched %d of %d nodes\n\n" matched (Graph.n g);

  (* The bandwidth constraint is enforced, not aspirational: a program that
     tries to ship a big message is rejected by the simulator. *)
  let greedy_program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          (if round = 0 && me = 0 then
             let payload = Array.init 64 Fun.id in
             let { Graph.off; _ } = Graph.csr g in
             for a = off.(me) to off.(me + 1) - 1 do
               Network.send mb ~arc:a payload
             done);
          { Network.state = st; halt = true });
    }
  in
  (match Network.run g greedy_program with
  | exception Network.Message_too_large { sender; words; limit } ->
      Printf.printf
        "CONGEST enforcement: node %d tried to send %d words (limit %d) — \
         rejected.\n"
        sender words limit
  | _ -> print_endline "BUG: oversized message was not rejected");

  (* Round accounting for the centrally-simulated constructions uses the
     same currency: *)
  let out = Ultra_sparse.run ~t:4 (Graph.with_unit_weights g) in
  Printf.printf
    "\nultra-sparse spanner on this torus: %d edges, %d simulated rounds, \
     broken down as:\n"
    (Spanner.size out.Ultra_sparse.spanner)
    (Spanner.total_rounds out.Ultra_sparse.spanner);
  List.iter
    (fun (label, r) -> Printf.printf "  %-28s %8d\n" label r)
    (Ultraspan.Rounds.breakdown out.Ultra_sparse.spanner.Spanner.rounds)
