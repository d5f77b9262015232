open Ultraspan
open Helpers

(* ---------- simulator semantics ---------- *)

let flood_reaches_everyone =
  qcheck "flooding reaches every vertex in ecc rounds" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let states, stats = Network.run g (flood_program 0) in
      let dist = Bfs.distances g 0 in
      Array.for_all2 (fun s d -> s = d) states dist
      && stats.Network.rounds <= Bfs.eccentricity g 0 + 2)

let word_limit_enforced () =
  let g = Generators.path 2 in
  let program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          if round = 0 && me = 0 then send_to g mb me 1 (Array.make 10 0);
          { Network.state = st; halt = true });
    }
  in
  match Network.run ~word_limit:4 g program with
  | exception Network.Message_too_large { words = 10; limit = 4; _ } -> ()
  | _ -> Alcotest.fail "expected Message_too_large"

let non_neighbor_rejected () =
  let g = Generators.path 3 in
  let program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          (* vertex 0 sends along vertex 1's arc towards 2 *)
          if round = 0 && me = 0 then
            Network.send mb ~arc:(Graph.arc_index g 1 2) [| 1 |];
          { Network.state = st; halt = true });
    }
  in
  match Network.run g program with
  | exception Network.Not_a_neighbor { sender = 0; arc } ->
      Alcotest.(check int) "offending arc" (Graph.arc_index g 1 2) arc
  | _ -> Alcotest.fail "expected Not_a_neighbor"

let duplicate_rejected () =
  (* two messages to the same (valid) neighbour: a distinct violation from
     targeting a non-neighbour, with its own exception *)
  let g = Generators.path 2 in
  let program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          if round = 0 && me = 0 then begin
            send_to g mb me 1 [| 1 |];
            send_to g mb me 1 [| 2 |]
          end;
          { Network.state = st; halt = true });
    }
  in
  match Network.run g program with
  | exception Network.Duplicate_message { sender = 0; target = 1 } -> ()
  | _ -> Alcotest.fail "expected Duplicate_message"

let round_limit_enforced () =
  let g = Generators.path 2 in
  let program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          (* nodes 0 and 1 ping-pong forever *)
          if (round = 0 && me = 0) || has_mail mb then
            send_to g mb me (1 - me) [| 0 |];
          { Network.state = st; halt = true });
    }
  in
  match Network.run ~max_rounds:10 g program with
  | exception Network.Round_limit_exceeded { limit = 10; partial } ->
      (* the partial stats make the divergence diagnosable *)
      Alcotest.(check int) "partial rounds" 10 partial.Network.rounds;
      Alcotest.(check bool) "messages observed" true
        (partial.Network.messages > 0)
  | _ -> Alcotest.fail "expected Round_limit_exceeded"

let message_stats_counted () =
  let g = Generators.star 5 in
  let _, stats = Network.run g (flood_program 0) in
  (* root sends 4, each leaf echoes to the root: 4 more *)
  Alcotest.(check int) "messages" 8 stats.Network.messages;
  Alcotest.(check int) "max words" 1 stats.Network.max_words

(* ---------- distributed BFS ---------- *)

let bfs_matches_centralized =
  qcheck "distributed bfs = centralized" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let result, _ = Programs.bfs g ~root:0 in
      let dist = Bfs.distances g 0 in
      result.Programs.dist = dist)

let bfs_parents_valid =
  qcheck "distributed bfs parents valid" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let result, _ = Programs.bfs g ~root:0 in
      let ok = ref true in
      Array.iteri
        (fun v p ->
          if v <> 0 && result.Programs.dist.(v) > 0 then
            if
              p < 0
              || (not (Graph.mem_edge g v p))
              || result.Programs.dist.(p) <> result.Programs.dist.(v) - 1
            then ok := false)
        result.Programs.parent;
      !ok)

let bfs_round_bound =
  qcheck "distributed bfs rounds ~ eccentricity" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let _, stats = Programs.bfs g ~root:0 in
      stats.Network.rounds <= Bfs.eccentricity g 0 + 2)

(* ---------- broadcast ---------- *)

let broadcast_max_correct =
  qcheck "broadcast_max converges to global max" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let rng = Rng.create seed in
      let values = Array.init (Graph.n g) (fun _ -> Rng.int rng 1000) in
      let result, _ = Programs.broadcast_max g ~values in
      let expected = Array.fold_left max min_int values in
      Array.for_all (fun v -> v = expected) result)

(* ---------- maximal matching ---------- *)

let matching_is_valid mate g =
  let ok = ref true in
  (* symmetric and between neighbours *)
  Array.iteri
    (fun v m ->
      if m >= 0 then begin
        if mate.(m) <> v then ok := false;
        if not (Graph.mem_edge g v m) then ok := false
      end)
    mate;
  !ok

let matching_is_maximal mate g =
  let ok = ref true in
  Graph.iter_edges g (fun e ->
      if mate.(e.Graph.u) = -1 && mate.(e.Graph.v) = -1 then ok := false);
  !ok

let mm_valid =
  qcheck "distributed matching is a matching" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let mate, _ = Programs.maximal_matching g in
      matching_is_valid mate g)

let mm_maximal =
  qcheck "distributed matching is maximal" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let mate, _ = Programs.maximal_matching g in
      matching_is_maximal mate g)

let mm_on_structured () =
  List.iter
    (fun (name, g) ->
      let mate, _ = Programs.maximal_matching g in
      Alcotest.(check bool) (name ^ " valid") true (matching_is_valid mate g);
      Alcotest.(check bool) (name ^ " maximal") true (matching_is_maximal mate g))
    [
      ("path", Generators.path 17);
      ("cycle", Generators.cycle 12);
      ("star", Generators.star 9);
      ("complete", Generators.complete 8);
      ("grid", Generators.grid 6 7);
    ]

(* ---------- round accounting ---------- *)

let rounds_accounting () =
  let r = Rounds.create () in
  Rounds.charge r 5;
  Rounds.charge ~label:"x" r 7;
  Rounds.charge_aggregate ~label:"x" r ~radius:3;
  Alcotest.(check int) "total" (5 + 7 + 8) (Rounds.total r);
  Alcotest.(check (list (pair string int))) "breakdown"
    [ ("(other)", 5); ("x", 15) ]
    (Rounds.breakdown r)

let rounds_merge () =
  let a = Rounds.create () and b = Rounds.create () in
  Rounds.charge ~label:"p" a 3;
  Rounds.charge ~label:"p" b 4;
  Rounds.charge ~label:"q" b 1;
  Rounds.merge_into a b;
  Alcotest.(check int) "merged total" 8 (Rounds.total a)

let rounds_rejects_negative () =
  let r = Rounds.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Rounds.charge: negative")
    (fun () -> Rounds.charge r (-1));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Rounds.charge_aggregate: negative radius") (fun () ->
      Rounds.charge_aggregate r ~radius:(-1))

let rounds_spans () =
  let r = Rounds.create () in
  Rounds.span r "algo" (fun () ->
      Rounds.charge ~label:"setup" r 2;
      Rounds.span r "phase-1" (fun () -> Rounds.charge ~label:"wave" r 5));
  Rounds.charge r 1;
  Alcotest.(check int) "total" 8 (Rounds.total r);
  Alcotest.(check (list (pair string int)))
    "breakdown is path-qualified"
    [ ("(other)", 1); ("algo/phase-1/wave", 5); ("algo/setup", 2) ]
    (Rounds.breakdown r);
  match Rounds.spans r with
  | [ algo; other ] ->
      Alcotest.(check string) "first span" "algo" algo.Rounds.name;
      Alcotest.(check int) "algo subtotal" 7 algo.Rounds.subtotal;
      Alcotest.(check int) "algo direct" 0 algo.Rounds.self;
      Alcotest.(check string) "flat charge is a leaf span" "(other)"
        other.Rounds.name;
      (match algo.Rounds.children with
      | [ setup; phase ] ->
          Alcotest.(check string) "setup leaf" "setup" setup.Rounds.name;
          Alcotest.(check int) "setup rounds" 2 setup.Rounds.subtotal;
          Alcotest.(check string) "phase node" "phase-1" phase.Rounds.name;
          Alcotest.(check int) "phase subtotal" 5 phase.Rounds.subtotal
      | _ -> Alcotest.fail "expected two children under algo")
  | _ -> Alcotest.fail "expected two top-level spans"

let rounds_span_unwinds_on_exception () =
  let r = Rounds.create () in
  (try
     Rounds.span r "boom" (fun () ->
         Rounds.charge ~label:"partial" r 3;
         failwith "bang")
   with Failure _ -> ());
  Rounds.charge ~label:"after" r 2;
  Alcotest.(check (list (pair string int)))
    "stack popped by the exception"
    [ ("after", 2); ("boom/partial", 3) ]
    (Rounds.breakdown r)

let rounds_merge_preserves_spans () =
  let a = Rounds.create () and b = Rounds.create () in
  Rounds.span b "inner" (fun () -> Rounds.charge ~label:"w" b 4);
  Rounds.span a "outer" (fun () -> Rounds.merge_into a b);
  Alcotest.(check int) "merged total" 4 (Rounds.total a);
  Alcotest.(check (list (pair string int)))
    "merged under the receiving span"
    [ ("outer/inner/w", 4) ]
    (Rounds.breakdown a)

let suite =
  [
    flood_reaches_everyone;
    case "simulator: word limit" word_limit_enforced;
    case "simulator: non-neighbor" non_neighbor_rejected;
    case "simulator: duplicate message" duplicate_rejected;
    case "simulator: round limit" round_limit_enforced;
    case "simulator: message stats" message_stats_counted;
    bfs_matches_centralized;
    bfs_parents_valid;
    bfs_round_bound;
    broadcast_max_correct;
    mm_valid;
    mm_maximal;
    case "matching: structured graphs" mm_on_structured;
    case "rounds: accounting" rounds_accounting;
    case "rounds: merge" rounds_merge;
    case "rounds: rejects negative" rounds_rejects_negative;
    case "rounds: span tree" rounds_spans;
    case "rounds: span unwinds on exception" rounds_span_unwinds_on_exception;
    case "rounds: merge preserves spans" rounds_merge_preserves_spans;
  ]

(* ---------- cluster-tree primitives ---------- *)

let cluster_partition_of seed t =
  let g = Helpers.graph_of_seed ~n_max:120 seed in
  let p, _ = Ultraspan.Stretch_friendly.partition ~t g in
  (g, p, Ultraspan.Cluster_programs.of_partition p)

let cluster_sums_correct =
  qcheck ~count:15 "cluster convergecast sums" seed_gen (fun seed ->
      let g, p, part = cluster_partition_of seed 4 in
      let n = Graph.n g in
      let values = Array.init n (fun v -> (v * v) mod 11) in
      let sums, _ = Cluster_programs.sum_to_roots g part ~values in
      let expected = Array.make (Partition.count p) 0 in
      Array.iteri
        (fun v c -> expected.(c) <- expected.(c) + values.(v))
        p.Partition.cluster_of;
      sums = expected)

let cluster_min_boundary_correct =
  qcheck ~count:15 "cluster min boundary edges" seed_gen (fun seed ->
      let g, p, part = cluster_partition_of seed 4 in
      let mins, _ = Cluster_programs.min_boundary_edges g part in
      let expected = Array.make (Partition.count p) None in
      Graph.iter_edges g (fun e ->
          let cu = p.Partition.cluster_of.(e.Graph.u)
          and cv = p.Partition.cluster_of.(e.Graph.v) in
          if cu <> cv then begin
            let key = Some (e.Graph.w, e.Graph.id) in
            let upd c =
              match expected.(c) with
              | Some k when Some k <= key -> ()
              | _ -> expected.(c) <- key
            in
            upd cu;
            upd cv
          end);
      mins = expected)

let cluster_broadcast_correct =
  qcheck ~count:15 "cluster broadcast from roots" seed_gen (fun seed ->
      let g, p, part = cluster_partition_of seed 8 in
      let values = Array.init (Partition.count p) (fun c -> (c * 31) + 5) in
      let got, _ = Cluster_programs.broadcast_from_roots g part ~values in
      let ok = ref true in
      Array.iteri
        (fun v x -> if x <> values.(p.Partition.cluster_of.(v)) then ok := false)
        got;
      !ok)

let cluster_rounds_match_accounting =
  qcheck ~count:15
    "measured wave cost within the charge_aggregate formula" seed_gen
    (fun seed ->
      let g, p, part = cluster_partition_of seed 8 in
      let radius = Partition.max_radius p in
      let _, s1 =
        Cluster_programs.sum_to_roots g part
          ~values:(Array.make (Graph.n g) 1)
      in
      let _, s2 = Cluster_programs.min_boundary_edges g part in
      let _, s3 =
        Cluster_programs.broadcast_from_roots g part
          ~values:(Array.make (Partition.count p) 0)
      in
      (* charge_aggregate bills 2*radius + 2 for a full down-and-up wave;
         each single wave must fit in radius + 3 measured rounds *)
      s1.Network.rounds <= radius + 3
      && s2.Network.rounds <= radius + 3
      && s3.Network.rounds <= radius + 3)

let cluster_rejects_unclustered () =
  let g = Generators.path 4 in
  let p = Partition.of_cluster_of g [| 0; 0; -1; 1 |] in
  Alcotest.check_raises "unclustered vertex"
    (Invalid_argument "Cluster_programs.of_partition: unclustered vertex")
    (fun () -> ignore (Cluster_programs.of_partition p))

let suite =
  suite
  @ [
      cluster_sums_correct;
      cluster_min_boundary_correct;
      cluster_broadcast_correct;
      cluster_rounds_match_accounting;
      case "cluster: rejects unclustered" cluster_rejects_unclustered;
    ]

(* ---------- weighted SSSP + spanning forest programs ---------- *)

let bellman_ford_matches_dijkstra =
  qcheck ~count:12 "distributed bellman-ford = dijkstra" seed_gen (fun seed ->
      let g = Helpers.graph_of_seed ~n_max:60 seed in
      let (dist, parent), _ = Programs.bellman_ford g ~source:0 in
      let expected = Dijkstra.distances g 0 in
      dist = expected
      && Array.for_all2
           (fun p d -> (d = 0 || d = max_int) = (p = -1))
           parent dist)

let bellman_ford_parents_relax =
  qcheck ~count:10 "bellman-ford parents lie on shortest paths" seed_gen
    (fun seed ->
      let g = Helpers.graph_of_seed ~n_max:60 seed in
      let (dist, parent), _ = Programs.bellman_ford g ~source:0 in
      let ok = ref true in
      Array.iteri
        (fun v p ->
          if p >= 0 then begin
            match Graph.find_edge g v p with
            | Some eid ->
                if dist.(p) + Graph.weight g eid <> dist.(v) then ok := false
            | None -> ok := false
          end)
        parent;
      !ok)

let spanning_forest_valid =
  qcheck ~count:12 "distributed spanning forest valid" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let eids, _ = Programs.spanning_forest g in
      Spanning_tree.is_spanning_forest g eids)

let spanning_forest_on_disconnected () =
  let g = Graph.of_edges ~n:9 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (5, 6, 1); (6, 7, 1) ] in
  let eids, _ = Programs.spanning_forest g in
  Alcotest.(check bool) "spanning forest" true (Spanning_tree.is_spanning_forest g eids);
  Alcotest.(check int) "edge count = n - #components" 5 (List.length eids)

let spanning_forest_rounds =
  qcheck ~count:10 "spanning forest rounds ~ eccentricity of min vertex"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let _, stats = Programs.spanning_forest g in
      stats.Network.rounds <= Bfs.eccentricity g 0 + 3)

let suite =
  suite
  @ [
      bellman_ford_matches_dijkstra;
      bellman_ford_parents_relax;
      spanning_forest_valid;
      case "forest: disconnected" spanning_forest_on_disconnected;
      spanning_forest_rounds;
    ]

(* ---------- fault injection ---------- *)

let empty_plan_is_identity =
  qcheck "empty fault plan = fault-free run" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let plain = Network.run g (flood_program 0) in
      let f = Faults.make Faults.empty in
      let faulty = Network.run ~faults:f g (flood_program 0) in
      plain = faulty && Faults.events f = [])

(* A plan with all three fault kinds, keyed by a seed. *)
let mixed_plan_of_seed g seed =
  let rng = Rng.create (succ (abs seed)) in
  let n = Graph.n g in
  Faults.empty
  |> Faults.with_drops ~seed 0.15
  |> Faults.random_crashes ~rng ~n ~within:4 ~count:(min 3 (n - 1))
  |> Faults.random_link_failures ~rng g ~within:4 ~count:(min 4 (Graph.m g))

let replay_is_deterministic =
  qcheck ~count:20 "same (seed, plan) replays identically" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let plan = mixed_plan_of_seed g seed in
      let run () =
        let f = Faults.make plan in
        let out = Network.run ~faults:f g (flood_program 0) in
        (out, Faults.events f)
      in
      run () = run ())

let crash_blocks_flood () =
  let g = Generators.path 4 in
  let f = Faults.make (Faults.crash ~round:0 1 Faults.empty) in
  let states, stats = Network.run ~faults:f g (flood_program 0) in
  Alcotest.(check (array int)) "flood stops at the crash"
    [| 0; -1; -1; -1 |] states;
  Alcotest.(check int) "crashed nodes" 1 stats.Network.crashed_nodes

let sever_blocks_link () =
  let g = Generators.path 3 in
  let f = Faults.make (Faults.sever ~round:0 1 2 Faults.empty) in
  let states, stats = Network.run ~faults:f g (flood_program 0) in
  Alcotest.(check (array int)) "flood stops at the dead link"
    [| 0; 1; -1 |] states;
  Alcotest.(check int) "severed links" 1 stats.Network.severed_links

let drop_everything () =
  let g = Generators.star 5 in
  let f = Faults.make (Faults.with_drops 1.0 Faults.empty) in
  let states, stats = Network.run ~faults:f g (flood_program 0) in
  Alcotest.(check (array int)) "only the root knows"
    [| 0; -1; -1; -1; -1 |] states;
  Alcotest.(check int) "nothing delivered" 0 stats.Network.messages;
  Alcotest.(check int) "every send dropped" 4 stats.Network.drops

let injector_is_single_use () =
  let g = Generators.path 3 in
  let f = Faults.make Faults.empty in
  let _ = Network.run ~faults:f g (flood_program 0) in
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Faults.start: injector already used (build a fresh one)")
    (fun () -> ignore (Network.run ~faults:f g (flood_program 0)))

let counters_match_event_log =
  qcheck ~count:20 "stats counters = event-log tallies" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let f = Faults.make (mixed_plan_of_seed g seed) in
      let _, stats = Network.run ~faults:f g (flood_program 0) in
      let crashes = ref 0 and severs = ref 0 and drops = ref 0 in
      List.iter
        (function
          | Faults.Crash _ -> incr crashes
          | Faults.Sever _ -> incr severs
          | Faults.Drop _ -> incr drops)
        (Faults.events f);
      stats.Network.crashed_nodes = !crashes
      && stats.Network.severed_links = !severs
      && stats.Network.drops = !drops
      && Faults.drops f = !drops
      && Faults.crashed_nodes f = !crashes
      && Faults.severed_links f = !severs)

let bfs_under_faults_partial =
  qcheck ~count:15 "bfs under faults: reached nodes have true distances"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let f = Faults.make (mixed_plan_of_seed g seed) in
      let result, _ = Programs.bfs ~faults:f g ~root:0 in
      let dist = Bfs.distances g 0 in
      (* faults only lose information: any distance the damaged run reports
         is an upper bound witnessed by a real path, never an undercount *)
      Array.for_all2
        (fun got true_d -> got = -1 || got >= true_d)
        result.Programs.dist dist)

let suite =
  suite
  @ [
      empty_plan_is_identity;
      replay_is_deterministic;
      case "faults: crash blocks flood" crash_blocks_flood;
      case "faults: sever blocks link" sever_blocks_link;
      case "faults: drop everything" drop_everything;
      case "faults: injector single-use" injector_is_single_use;
      counters_match_event_log;
      bfs_under_faults_partial;
    ]
