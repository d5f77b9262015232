open Ultraspan
open Helpers

(* ---------- APSP ---------- *)

let apsp_agree =
  qcheck ~count:15 "floyd-warshall = per-vertex dijkstra" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      Apsp.floyd_warshall g = Apsp.by_dijkstra g)

let apsp_symmetric =
  qcheck ~count:10 "APSP matrix symmetric with zero diagonal" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let d = Apsp.floyd_warshall g in
      let n = Graph.n g in
      let ok = ref true in
      for i = 0 to n - 1 do
        if d.(i).(i) <> 0 then ok := false;
        for j = 0 to n - 1 do
          if d.(i).(j) <> d.(j).(i) then ok := false
        done
      done;
      !ok)

let pair_stretch_sandwich =
  qcheck ~count:10 "true pair stretch <= edge-based stretch" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let keep = Array.make (Graph.m g) false in
      List.iter (fun e -> keep.(e) <- true) (Spanning_tree.kruskal_mst g);
      let exact = Apsp.exact_pair_stretch g keep in
      let edge_based = Stretch.max_edge_stretch g keep in
      exact <= edge_based +. 1e-9)

let apsp_diameter () =
  Alcotest.(check int) "path diameter" 9 (Apsp.diameter (Generators.path 10));
  Alcotest.(check int) "disconnected" Dijkstra.infinity
    (Apsp.diameter (Graph.of_edges ~n:3 [ (0, 1, 5) ]))

(* ---------- MPX low-diameter decomposition ---------- *)

let mpx_validates =
  qcheck ~count:15 "MPX decomposition validates" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let d = Mpx.decompose ~rng:(Rng.create seed) ~beta:0.4 g in
      Mpx.validate g d = Ok ())

let mpx_radius_bound () =
  (* radius O(log n / beta) w.h.p.: check a generous envelope over seeds *)
  let g = Generators.grid 20 20 in
  for seed = 1 to 10 do
    let beta = 0.3 in
    let d = Mpx.decompose ~rng:(Rng.create seed) ~beta g in
    let bound =
      int_of_float (4.0 *. Float.log2 (float_of_int (Graph.n g)) /. beta)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d radius" seed)
      true
      (Mpx.max_radius g d <= bound)
  done

let mpx_cut_fraction () =
  (* expected cut fraction ~ beta: across seeds the average should be well
     below 3*beta on a bounded-degree graph *)
  let g = Generators.torus 20 20 in
  let beta = 0.2 in
  let fracs =
    Array.init 10 (fun s ->
        let d = Mpx.decompose ~rng:(Rng.create (s + 1)) ~beta g in
        float_of_int (Mpx.cut_edges g d) /. float_of_int (Graph.m g))
  in
  Alcotest.(check bool) "cut fraction" true (Stats.mean fracs <= 3.0 *. beta)

let mpx_beta_tradeoff () =
  (* larger beta -> more clusters *)
  let g = Generators.grid 25 25 in
  let small = Mpx.decompose ~rng:(Rng.create 4) ~beta:0.05 g in
  let large = Mpx.decompose ~rng:(Rng.create 4) ~beta:0.8 g in
  Alcotest.(check bool) "monotone cluster count" true
    (Mpx.n_clusters small < Mpx.n_clusters large)

(* ---------- distributed Baswana–Sen ---------- *)

let bsd_valid =
  qcheck ~count:15 "CONGEST BS: spanning + stretch <= 2k-1" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:120 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 3 in
      let out = Bs_distributed.run ~seed ~k g in
      Spanner.is_spanning g out.Bs_distributed.spanner
      && Stretch.max_edge_stretch g out.Bs_distributed.spanner.Spanner.keep
         <= float_of_int ((2 * k) - 1) +. 1e-9)

let bsd_round_complexity =
  qcheck ~count:10 "CONGEST BS runs in 2k + O(1) real rounds" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let k = 3 in
      let out = Bs_distributed.run ~seed ~k g in
      out.Bs_distributed.network_stats.Network.rounds <= (2 * k) + 2)

let bsd_message_size =
  qcheck ~count:10 "CONGEST BS messages are O(log n) bits" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let out = Bs_distributed.run ~seed ~k:3 g in
      out.Bs_distributed.network_stats.Network.max_words <= 2)

let bsd_reproducible () =
  let g = graph_of_seed ~n_max:100 3 in
  let a = Bs_distributed.run ~seed:9 ~k:3 g in
  let b = Bs_distributed.run ~seed:9 ~k:3 g in
  Alcotest.(check bool) "same seed, same spanner" true
    (a.Bs_distributed.spanner.Spanner.keep = b.Bs_distributed.spanner.Spanner.keep)

let bsd_unweighted =
  qcheck ~count:10 "CONGEST BS on unweighted graphs" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:120 seed in
      let out = Bs_distributed.run ~seed ~k:4 g in
      Spanner.is_spanning g out.Bs_distributed.spanner
      && Stretch.max_edge_stretch g out.Bs_distributed.spanner.Spanner.keep
         <= 7.0 +. 1e-9)

(* ---------- Luby MIS ---------- *)

let mis_check g mis =
  let indep = ref true and maximal = ref true in
  Graph.iter_edges g (fun e ->
      if mis.(e.Graph.u) && mis.(e.Graph.v) then indep := false);
  for v = 0 to Graph.n g - 1 do
    if not mis.(v) then begin
      let covered = ref false in
      Graph.iter_adj g v (fun u _ -> if mis.(u) then covered := true);
      if not !covered then maximal := false
    end
  done;
  (!indep, !maximal)

let luby_valid =
  qcheck ~count:20 "Luby MIS is independent and maximal" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:150 seed in
      let mis, _ = Programs.luby_mis ~seed g in
      mis_check g mis = (true, true))

let luby_round_bound =
  qcheck ~count:10 "Luby MIS finishes in O(log n) phases" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:200 seed in
      let _, stats = Programs.luby_mis ~seed g in
      stats.Network.rounds
      <= 3 * (4 + (4 * Coloring.log_star 0) + int_of_float (4.0 *. Float.log2 (float_of_int (Graph.n g + 2)))))

let luby_structured () =
  List.iter
    (fun (name, g) ->
      let mis, _ = Programs.luby_mis ~seed:7 g in
      Alcotest.(check (pair bool bool)) name (true, true) (mis_check g mis))
    [
      ("path", Generators.path 40);
      ("star", Generators.star 20);
      ("complete", Generators.complete 15);
      ("grid", Generators.grid 9 9);
    ]

let luby_complete_graph_single () =
  let g = Generators.complete 20 in
  let mis, _ = Programs.luby_mis ~seed:1 g in
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis in
  Alcotest.(check int) "exactly one vertex" 1 count

(* ---------- k-ECSS ---------- *)

let kecss_ratio =
  qcheck ~count:8 "k-ECSS approximation within 2(1+eps)" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 3 in
      let g = Generators.harary ~k ~n:(30 + Rng.int rng 30) in
      let out = Kecss.approximate ~epsilon:0.25 ~k g in
      out.Kecss.connectivity_checked
      && out.Kecss.ratio <= (2.0 *. 1.25) +. 0.3)

let kecss_rejects_underconnected () =
  let g = Generators.path 10 in
  Alcotest.check_raises "not 3-connected"
    (Invalid_argument "Kecss.approximate: input is not k-edge-connected")
    (fun () -> ignore (Kecss.approximate ~k:3 g))

let kecss_exact_connectivity () =
  (* the headline vs Parter: exact k, not k(1-eps) *)
  let g = Generators.harary ~k:5 ~n:40 in
  let out = Kecss.approximate ~epsilon:0.5 ~k:5 g in
  let h = Certificate.subgraph g out.Kecss.certificate in
  Alcotest.(check bool) "exact k-connectivity" true
    (Maxflow.is_k_edge_connected h 5)

(* ---------- edge cases across the library ---------- *)

let zero_weight_edges () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 0); (1, 2, 0); (2, 3, 5); (0, 3, 9) ] in
  let d = Dijkstra.distances g 0 in
  Alcotest.(check int) "zero-weight path" 0 d.(2);
  Alcotest.(check int) "through zero" 5 d.(3);
  let rng = Rng.create 1 in
  let out = Baswana_sen.run ~rng ~k:2 g in
  Alcotest.(check bool) "BS tolerates zero weights" true
    (Spanner.is_spanning g out.Baswana_sen.spanner)

let equal_weight_ties =
  qcheck ~count:10 "all-equal weights exercise tie-breaking" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let g7 = Graph.with_weights g (fun _ -> 7) in
      let p, _ = Stretch_friendly.partition ~t:4 g7 in
      let out = Bs_derand.run ~k:3 g7 in
      Partition.validate p = Ok ()
      && Stretch_friendly.is_stretch_friendly g7 p
      && Spanner.is_spanning g7 out.Bs_derand.spanner)

let single_vertex_and_empty () =
  let g1 = Graph.empty 1 in
  let out = Linear_size.run g1 in
  Alcotest.(check int) "single vertex spanner" 0 (Spanner.size out.Linear_size.spanner);
  let g0 = Graph.empty 0 in
  Alcotest.(check int) "empty graph m" 0 (Graph.m g0);
  let p, _ = Stretch_friendly.partition ~t:1 g1 in
  Alcotest.(check int) "single vertex partition" 1 (Partition.count p)

let two_vertices () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 3) ] in
  let out = Ultra_sparse.run ~t:2 g in
  Alcotest.(check int) "keeps the edge" 1 (Spanner.size out.Ultra_sparse.spanner);
  let c = Nagamochi_ibaraki.certificate ~k:1 g in
  Alcotest.(check int) "certificate keeps the edge" 1 (Certificate.size c)

let star_graph_spanners () =
  (* stars force the high-degree code paths *)
  let g = Generators.star 200 in
  let out = Bs_derand.run ~k:3 g in
  Alcotest.(check int) "star spanner = star" 199
    (Spanner.size out.Bs_derand.spanner);
  let ls = Linear_size.run g in
  Alcotest.(check int) "linear size star" 199 (Spanner.size ls.Linear_size.spanner)

let suite =
  [
    apsp_agree;
    apsp_symmetric;
    pair_stretch_sandwich;
    case "apsp: diameter" apsp_diameter;
    mpx_validates;
    case "mpx: radius bound" mpx_radius_bound;
    case "mpx: cut fraction" mpx_cut_fraction;
    case "mpx: beta tradeoff" mpx_beta_tradeoff;
    bsd_valid;
    bsd_round_complexity;
    bsd_message_size;
    case "congest bs: reproducible" bsd_reproducible;
    bsd_unweighted;
    luby_valid;
    luby_round_bound;
    case "luby: structured graphs" luby_structured;
    case "luby: complete graph" luby_complete_graph_single;
    kecss_ratio;
    case "kecss: rejects underconnected" kecss_rejects_underconnected;
    case "kecss: exact connectivity" kecss_exact_connectivity;
    case "edge: zero weights" zero_weight_edges;
    equal_weight_ties;
    case "edge: tiny graphs" single_vertex_and_empty;
    case "edge: two vertices" two_vertices;
    case "edge: star high-degree paths" star_graph_spanners;
  ]

(* ---------- bridges / girth / lightness ---------- *)

let bridges_known () =
  (* two triangles joined by a bridge *)
  let g =
    Graph.of_edges ~n:6
      [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (3, 4, 1); (4, 5, 1); (5, 3, 1); (2, 3, 1) ]
  in
  let bs = Bridges.bridges g in
  Alcotest.(check int) "one bridge" 1 (List.length bs);
  let eid = List.hd bs in
  Alcotest.(check (pair int int)) "the 2-3 edge" (2, 3) (Graph.endpoints g eid);
  let _, count = Bridges.two_edge_components g in
  Alcotest.(check int) "two 2ecc components" 2 count

let bridges_tree_all () =
  let g = Generators.binary_tree 31 in
  Alcotest.(check int) "every tree edge is a bridge" 30
    (List.length (Bridges.bridges g))

let bridges_cycle_none () =
  Alcotest.(check (list int)) "cycle has no bridges" []
    (Bridges.bridges (Generators.cycle 12))

let bridges_match_maxflow =
  qcheck ~count:15 "2-edge-connectivity: tarjan = maxflow" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      Bridges.is_2_edge_connected g = Maxflow.is_k_edge_connected g 2)

let bridges_vs_connectivity =
  qcheck ~count:10 "removing a bridge disconnects" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      List.for_all
        (fun eid ->
          let keep = Array.init (Graph.m g) (fun i -> i <> eid) in
          not (Connectivity.spans g keep))
        (Bridges.bridges g))

let girth_known () =
  Alcotest.(check int) "C5" 5 (Cycles.girth (Generators.cycle 5));
  Alcotest.(check int) "K4" 3 (Cycles.girth (Generators.complete 4));
  Alcotest.(check int) "grid" 4 (Cycles.girth (Generators.grid 4 4));
  Alcotest.(check int) "tree" max_int (Cycles.girth (Generators.binary_tree 15));
  Alcotest.(check int) "hypercube" 4 (Cycles.girth (Generators.hypercube 4));
  Alcotest.(check int) "petersen-ish torus" 3 (Cycles.girth (Generators.torus 3 3))

let greedy_girth_direct =
  qcheck ~count:10 "greedy (2k-1)-spanner has girth > 2k (direct)" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 2 in
      let sp = Greedy.run ~k g in
      let h = Graph.sub_by_eids g sp.Spanner.keep in
      Cycles.girth h > 2 * k)

let lightness_mst_is_one () =
  let g = graph_of_seed 5 in
  let sp = Spanner.of_eids g (Spanning_tree.kruskal_mst g) in
  Alcotest.(check (float 1e-9)) "MST lightness" 1.0 (Spanner.lightness g sp)

let lightness_monotone =
  qcheck ~count:10 "lightness >= 1 for spanning subgraphs" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let out = Ultra_sparse.run ~t:4 g in
      Spanner.lightness g out.Ultra_sparse.spanner >= 1.0 -. 1e-9)

let suite =
  suite
  @ [
      case "bridges: known graph" bridges_known;
      case "bridges: tree" bridges_tree_all;
      case "bridges: cycle" bridges_cycle_none;
      bridges_match_maxflow;
      bridges_vs_connectivity;
      case "girth: known values" girth_known;
      greedy_girth_direct;
      case "lightness: mst" lightness_mst_is_one;
      lightness_monotone;
    ]

(* ---------- distributed Lemma 4.1 ---------- *)

let sfd_matches_centralized =
  qcheck ~count:12 "distributed Lemma 4.1 = centralized, bit for bit"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let rng = Rng.create seed in
      let t = max 1 (min (2 + Rng.int rng 12) (Graph.n g / 2)) in
      let p1, _ = Stretch_friendly.partition ~t g in
      let out = Sf_distributed.partition ~t g in
      let p2 = out.Sf_distributed.partition in
      p1.Partition.cluster_of = p2.Partition.cluster_of
      && p1.Partition.parent = p2.Partition.parent
      && p1.Partition.parent_eid = p2.Partition.parent_eid
      && p1.Partition.roots = p2.Partition.roots)

let sfd_invariants =
  qcheck ~count:10 "distributed Lemma 4.1 invariants hold" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:120 seed in
      let t = max 1 (min 8 (Graph.n g / 2)) in
      let out = Sf_distributed.partition ~t g in
      let p = out.Sf_distributed.partition in
      Partition.validate p = Ok ()
      && Stretch_friendly.is_stretch_friendly g p
      && Array.for_all (fun s -> s >= t) (Partition.sizes p))

let sfd_real_rounds_linear_in_t =
  qcheck ~count:8 "distributed Lemma 4.1 measured rounds O(t log* n)"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let rng = Rng.create seed in
      let t = max 2 (min (2 + Rng.int rng 15) (Graph.n g / 2)) in
      let out = Sf_distributed.partition ~t g in
      out.Sf_distributed.real_rounds
      <= 60 * t * (Coloring.log_star (Graph.n g) + 8))

let suite =
  suite
  @ [ sfd_matches_centralized; sfd_invariants; sfd_real_rounds_linear_in_t ]

(* ---------- final coverage batch ---------- *)

let sfd_structured () =
  List.iter
    (fun (name, g, t) ->
      let p1, _ = Stretch_friendly.partition ~t g in
      let out = Sf_distributed.partition ~t g in
      Alcotest.(check bool) (name ^ " identical") true
        (p1.Partition.cluster_of = out.Sf_distributed.partition.Partition.cluster_of))
    [
      ("grid", Graph.with_unit_weights (Generators.grid 12 12), 8);
      ("caterpillar", Generators.caterpillar 30 3, 8);
      ("cycle", Generators.cycle 64, 16);
      ("weighted torus",
       Generators.randomize_weights ~rng:(Rng.create 3) ~lo:1 ~hi:50
         (Generators.torus 8 8), 4);
    ]

let cluster_broadcast_deep_path () =
  (* one cluster spanning a long path: wave cost ~ radius, still correct *)
  let g = Generators.path 300 in
  let p = Partition.of_cluster_of g (Array.make 300 0) in
  let part = Cluster_programs.of_partition p in
  let got, stats = Cluster_programs.broadcast_from_roots g part ~values:[| 42 |] in
  Alcotest.(check bool) "all received" true (Array.for_all (fun x -> x = 42) got);
  Alcotest.(check bool) "rounds ~ path length" true
    (stats.Network.rounds <= 300 + 3 && stats.Network.rounds >= 250)

let duplicate_message_rejected () =
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
  | _ -> Alcotest.fail "duplicate per-round message not rejected"

let en_size_statistical () =
  (* with k = ceil(log2 n), EN's size should be O(n) on average *)
  let rng0 = Rng.create 12 in
  let g = Generators.connected_gnp ~rng:rng0 ~n:500 ~avg_degree:20.0 in
  let k = 9 in
  let sizes =
    Array.init 8 (fun i ->
        let rng = Rng.create (100 + i) in
        float_of_int (Spanner.size (Elkin_neiman.run ~rng ~k g).Elkin_neiman.spanner))
  in
  Alcotest.(check bool) "mean O(n)" true (Stats.mean sizes <= 10.0 *. 500.0)

let ruling_set_alpha1 () =
  let g = Generators.path 10 in
  let rs = Ruling_set.greedy g ~alpha:1 in
  Alcotest.(check int) "alpha=1 takes everyone" 10 (List.length rs)

let graph_pp_smoke () =
  let g = Generators.path 4 in
  let s = Format.asprintf "%a" Graph.pp g in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions n" true (contains "n=4");
  Alcotest.(check bool) "mentions m" true (contains "m=3")

let suite =
  suite
  @ [
      case "sfd: structured graphs" sfd_structured;
      case "cluster wave: deep path" cluster_broadcast_deep_path;
      case "network: duplicate message" duplicate_message_rejected;
      slow_case "en: size statistical" en_size_statistical;
      case "ruling set: alpha 1" ruling_set_alpha1;
      case "graph: pp smoke" graph_pp_smoke;
    ]
