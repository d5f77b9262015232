open Ultraspan
open Helpers

(* ---------- construction ---------- *)

let construction_basics () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (3, 2, 7) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "degree 0" 1 (Graph.degree g 0);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check int) "total weight" 15 (Graph.total_weight g);
  Alcotest.(check bool) "mem 2-3" true (Graph.mem_edge g 2 3);
  Alcotest.(check bool) "not mem 0-3" false (Graph.mem_edge g 0 3)

let construction_merges_parallel () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 5); (1, 0, 2); (0, 1, 9) ] in
  Alcotest.(check int) "merged" 1 (Graph.m g);
  Alcotest.(check int) "min weight kept" 2 (Graph.weight g 0)

let construction_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1, 1) ]))

let construction_rejects_bad_endpoint () =
  Alcotest.check_raises "oob"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3, 1) ]))

let construction_rejects_negative_weight () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.of_edges: negative weight") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 1, -1) ]))

let endpoints_canonical =
  qcheck "edges canonical u < v, ids dense" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let ok = ref true in
      Array.iteri
        (fun i e ->
          if e.Graph.id <> i || e.Graph.u >= e.Graph.v then ok := false)
        (Graph.edges g);
      !ok)

let adjacency_consistent =
  qcheck "iter_adj covers each edge twice" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let count = Array.make (Graph.m g) 0 in
      for v = 0 to Graph.n g - 1 do
        Graph.iter_adj g v (fun u eid ->
            count.(eid) <- count.(eid) + 1;
            ignore u)
      done;
      Array.for_all (fun c -> c = 2) count)

let other_endpoint () =
  let g = Graph.of_edges ~n:3 [ (0, 2, 1) ] in
  Alcotest.(check int) "other of 0" 2 (Graph.other_endpoint g 0 0);
  Alcotest.(check int) "other of 2" 0 (Graph.other_endpoint g 0 2);
  Alcotest.check_raises "not on edge"
    (Invalid_argument "Graph.other_endpoint: vertex not on edge") (fun () ->
      ignore (Graph.other_endpoint g 0 1))

let sub_by_eids_roundtrip =
  qcheck "subgraph keeps selected edges" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let rng = Rng.create seed in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.bool rng) in
      let sub = Graph.sub_by_eids g keep in
      let expected = Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep in
      Graph.n sub = Graph.n g && Graph.m sub = expected)

let sub_with_mapping_correct =
  qcheck "sub_with_mapping maps edges faithfully" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let rng = Rng.create (seed + 1) in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.bool rng) in
      let sub, mapping = Graph.sub_with_mapping g keep in
      let ok = ref (Array.length mapping = Graph.m sub) in
      Array.iteri
        (fun new_eid old_eid ->
          let nu, nv = Graph.endpoints sub new_eid in
          let ou, ov = Graph.endpoints g old_eid in
          if
            (nu, nv) <> (ou, ov)
            || Graph.weight sub new_eid <> Graph.weight g old_eid
            || not keep.(old_eid)
          then ok := false)
        mapping;
      !ok)

let with_unit_weights_same_ids =
  qcheck "with_unit_weights keeps topology and ids" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let u = Graph.with_unit_weights g in
      Graph.n u = Graph.n g
      && Graph.m u = Graph.m g
      && Array.for_all (fun e -> e.Graph.w = 1) (Graph.edges u)
      && Array.for_all2
           (fun a b -> a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v)
           (Graph.edges g) (Graph.edges u))

(* ---------- io ---------- *)

let io_roundtrip =
  qcheck "save/load identity" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      Graph.n g = Graph.n g'
      && Array.for_all2
           (fun a b -> a = b)
           (Graph.edges g) (Graph.edges g'))

let io_rejects_garbage () =
  Alcotest.check_raises "bad header" (Failure "Graph_io: bad header") (fun () ->
      ignore (Graph_io.of_string "hello world\n"));
  (* hostile vertex counts fail before anything of size n is allocated *)
  let over = Graph_io.max_vertices + 1 in
  List.iter
    (fun (n, header) ->
      Alcotest.check_raises (String.escaped header)
        (Failure
           (Printf.sprintf "Graph_io: vertex count %d exceeds the cap of %d"
              n Graph_io.max_vertices))
        (fun () -> ignore (Graph_io.of_string header)))
    [
      (999999999999, "999999999999 1\n0 1 1\n");
      (max_int, Printf.sprintf "%d 0\n" max_int);
      (over, Printf.sprintf "%d 0\n" over);
    ]

let io_comments () =
  let g = Graph_io.of_string "# a comment\n3 1\n0 1 7\n" in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "w" 7 (Graph.weight g 0)

(* ---------- generators ---------- *)

let gen_path () =
  let g = Generators.path 10 in
  Alcotest.(check int) "m" 9 (Graph.m g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g);
  Alcotest.(check int) "diameter" 9 (Bfs.diameter_hops g)

let gen_cycle () =
  let g = Generators.cycle 10 in
  Alcotest.(check int) "m" 10 (Graph.m g);
  Alcotest.(check int) "diameter" 5 (Bfs.diameter_hops g);
  Alcotest.(check bool) "2-edge-connected" true (Maxflow.is_k_edge_connected g 2)

let gen_complete () =
  let g = Generators.complete 8 in
  Alcotest.(check int) "m" 28 (Graph.m g);
  Alcotest.(check int) "lambda" 7 (Maxflow.edge_connectivity g)

let gen_grid () =
  let g = Generators.grid 4 6 in
  Alcotest.(check int) "n" 24 (Graph.n g);
  Alcotest.(check int) "m" ((3 * 6) + (4 * 5)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g);
  Alcotest.(check int) "diameter" 8 (Bfs.diameter_hops g)

let gen_torus () =
  let g = Generators.torus 4 5 in
  Alcotest.(check int) "m" 40 (Graph.m g);
  Alcotest.(check int) "4-regular lambda" 4 (Maxflow.edge_connectivity g)

let gen_hypercube () =
  let g = Generators.hypercube 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "lambda = d" 4 (Maxflow.edge_connectivity g)

let gen_star_binary_caterpillar () =
  let s = Generators.star 7 in
  Alcotest.(check int) "star m" 6 (Graph.m s);
  let b = Generators.binary_tree 15 in
  Alcotest.(check int) "tree m" 14 (Graph.m b);
  Alcotest.(check bool) "tree connected" true (Connectivity.is_connected b);
  let c = Generators.caterpillar 5 3 in
  Alcotest.(check int) "caterpillar n" 20 (Graph.n c);
  Alcotest.(check int) "caterpillar m" 19 (Graph.m c);
  Alcotest.(check bool) "caterpillar connected" true (Connectivity.is_connected c)

let gen_harary_connectivity () =
  List.iter
    (fun (k, n) ->
      let g = Generators.harary ~k ~n in
      let lam = Maxflow.edge_connectivity g in
      Alcotest.(check bool)
        (Printf.sprintf "harary %d %d lambda >= k" k n)
        true (lam >= k);
      Alcotest.(check bool)
        (Printf.sprintf "harary %d %d near-minimal" k n)
        true
        (Graph.m g <= ((k * n) + 1) / 2 + 1))
    [ (1, 5); (2, 9); (3, 10); (3, 13); (4, 11); (5, 14); (6, 13); (7, 16) ]

let gen_gnp_connected =
  qcheck "connected_gnp is connected" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.connected_gnp ~rng ~n:80 ~avg_degree:3.0 in
      Connectivity.is_connected g)

let gen_gnp_density () =
  let rng = Rng.create 5 in
  let g = Generators.gnp ~rng ~n:300 ~p:0.1 in
  let expected = 0.1 *. float_of_int (300 * 299 / 2) in
  let m = float_of_int (Graph.m g) in
  Alcotest.(check bool) "density within 15%" true
    (m > 0.85 *. expected && m < 1.15 *. expected)

let gen_gnm_exact =
  qcheck "gnm has exactly m edges" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.gnm ~rng ~n:50 ~m:100 in
      Graph.m g = 100)

let gen_geometric () =
  let rng = Rng.create 8 in
  let g = Generators.random_geometric ~rng ~n:200 ~radius:0.15 in
  Alcotest.(check bool) "has edges" true (Graph.m g > 0);
  Alcotest.(check bool) "weights bounded" true
    (Array.for_all (fun e -> e.Graph.w >= 1 && e.Graph.w <= 1000) (Graph.edges g))

let gen_preferential () =
  let rng = Rng.create 21 in
  let g = Generators.preferential_attachment ~rng ~n:200 ~degree:3 in
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g);
  Alcotest.(check bool) "m about 3n" true
    (Graph.m g >= (3 * (200 - 4)) && Graph.m g <= 3 * 200 + 10)

let gen_randomize_weights =
  qcheck "randomize_weights in range" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.grid 5 5 in
      let g = Generators.randomize_weights ~rng ~lo:3 ~hi:9 g in
      Array.for_all (fun e -> e.Graph.w >= 3 && e.Graph.w <= 9) (Graph.edges g))

(* ---------- traversal ---------- *)

let bfs_path_distances () =
  let g = Generators.path 6 in
  let d = Bfs.distances g 0 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4; 5 |] d

let bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1) ] in
  let d = Bfs.distances g 0 in
  Alcotest.(check int) "unreachable" (-1) d.(3)

let bfs_tree_valid =
  qcheck "bfs tree parents decrease distance" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let dist, parent_eid = Bfs.tree g 0 in
      let ok = ref true in
      Array.iteri
        (fun v pe ->
          if v <> 0 && dist.(v) > 0 then begin
            if pe < 0 then ok := false
            else begin
              let u = Graph.other_endpoint g pe v in
              if dist.(u) <> dist.(v) - 1 then ok := false
            end
          end)
        parent_eid;
      !ok)

let bfs_multi_source () =
  let g = Generators.path 7 in
  let dist, src = Bfs.multi_source g [ 0; 6 ] in
  Alcotest.(check int) "middle dist" 3 dist.(3);
  Alcotest.(check int) "near left" 0 src.(1);
  Alcotest.(check int) "near right" 6 src.(5)

let dijkstra_vs_bellman =
  qcheck ~count:25 "dijkstra = bellman-ford" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 seed in
      let d1 = Dijkstra.distances g 0 in
      let d2 = Bellman_ford.distances g 0 in
      d1 = d2)

let dijkstra_vs_bfs_unit =
  qcheck "dijkstra on unit weights = bfs" seed_gen (fun seed ->
      let g = unit_graph_of_seed seed in
      let d1 = Dijkstra.distances g 0 in
      let d2 = Bfs.distances g 0 in
      Array.for_all2
        (fun a b -> (a = Dijkstra.infinity && b = -1) || a = b)
        d1 d2)

let dijkstra_point_to_point =
  qcheck "distance agrees with distances" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let rng = Rng.create seed in
      let t = Rng.int rng (Graph.n g) in
      Dijkstra.distance g 0 t = (Dijkstra.distances g 0).(t))

let dijkstra_restricted () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 10) ] in
  let direct = Graph.find_edge g 0 2 |> Option.get in
  let keep = Array.init (Graph.m g) (fun e -> e = direct) in
  let d = Dijkstra.distances ~keep g 0 in
  Alcotest.(check int) "only direct edge" 10 d.(2);
  Alcotest.(check int) "1 unreachable" Dijkstra.infinity d.(1)

let dijkstra_triangle_inequality =
  qcheck "distances satisfy triangle inequality over edges" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:60 seed in
      let d = Dijkstra.distances g 0 in
      let ok = ref true in
      Graph.iter_edges g (fun e ->
          if
            d.(e.Graph.u) < Dijkstra.infinity
            && d.(e.Graph.v) < Dijkstra.infinity
          then begin
            if d.(e.Graph.v) > d.(e.Graph.u) + e.Graph.w then ok := false;
            if d.(e.Graph.u) > d.(e.Graph.v) + e.Graph.w then ok := false
          end);
      !ok)

(* ---------- components / spanning trees ---------- *)

let components_count () =
  let g = Graph.of_edges ~n:6 [ (0, 1, 1); (2, 3, 1) ] in
  let _, count = Connectivity.components g in
  Alcotest.(check int) "components" 4 count;
  Alcotest.(check bool) "same comp" true (Connectivity.same_component g 0 1);
  Alcotest.(check bool) "diff comp" false (Connectivity.same_component g 1 2)

let spans_detects_broken =
  qcheck "dropping a bridge breaks spanning" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let mst = Spanning_tree.kruskal_mst g in
      let keep = Array.make (Graph.m g) false in
      List.iter (fun e -> keep.(e) <- true) mst;
      let spans_full = Connectivity.spans g keep in
      (* remove one tree edge: must no longer span *)
      match mst with
      | [] -> true
      | e :: _ ->
          keep.(e) <- false;
          spans_full && not (Connectivity.spans g keep))

let mst_weights_agree =
  qcheck "kruskal and prim agree on weight" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      Spanning_tree.forest_weight g (Spanning_tree.kruskal_mst g)
      = Spanning_tree.forest_weight g (Spanning_tree.prim_mst g))

let mst_is_spanning_forest =
  qcheck "mst is a spanning forest" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      Spanning_tree.is_spanning_forest g (Spanning_tree.kruskal_mst g)
      && Spanning_tree.is_spanning_forest g (Spanning_tree.bfs_forest g))

let mst_minimality_small () =
  (* exhaustive check on a tiny graph: MST weight <= weight of any
     spanning tree obtained by edge subsets *)
  let g =
    Graph.of_edges ~n:4
      [ (0, 1, 4); (1, 2, 3); (2, 3, 2); (3, 0, 5); (0, 2, 1) ]
  in
  let mst_w = Spanning_tree.forest_weight g (Spanning_tree.kruskal_mst g) in
  Alcotest.(check int) "known mst weight" 6 mst_w

(* ---------- flows and cuts ---------- *)

let maxflow_known () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 3, 1) ] in
  let net = Maxflow.of_graph g in
  Alcotest.(check int) "two disjoint paths" 2 (Maxflow.max_flow net 0 3)

let maxflow_limit () =
  let g = Generators.complete 6 in
  let net = Maxflow.of_graph g in
  Alcotest.(check int) "limit caps" 2 (Maxflow.max_flow ~limit:2 net 0 5)

let edge_connectivity_matches_stoer_wagner =
  qcheck ~count:20 "lambda: flow = stoer-wagner" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      Maxflow.edge_connectivity g = Mincut.stoer_wagner g)

let edge_connectivity_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  Alcotest.(check int) "lambda 0" 0 (Maxflow.edge_connectivity g);
  Alcotest.(check bool) "not 1-connected" false (Maxflow.is_k_edge_connected g 1)

let edge_connectivity_upper_saturates () =
  let g = Generators.complete 8 in
  Alcotest.(check int) "saturates at upper+1" 4
    (Maxflow.edge_connectivity ~upper:3 g)

let mincut_weighted () =
  (* two triangles joined by one light edge *)
  let g =
    Graph.of_edges ~n:6
      [
        (0, 1, 5); (1, 2, 5); (0, 2, 5);
        (3, 4, 5); (4, 5, 5); (3, 5, 5);
        (2, 3, 2);
      ]
  in
  let w, side = Mincut.stoer_wagner_cut g in
  Alcotest.(check int) "cut weight" 2 w;
  Alcotest.(check bool) "sides differ" true (side.(0) <> side.(5))

(* ---------- stretch ---------- *)

let stretch_full_graph_is_one =
  qcheck "keeping all edges gives stretch 1" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let keep = Array.make (Graph.m g) true in
      abs_float (Stretch.max_edge_stretch g keep -. 1.0) < 1e-9)

let stretch_mst_finite =
  qcheck "mst stretch finite and >= 1" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let keep = Array.make (Graph.m g) false in
      List.iter (fun e -> keep.(e) <- true) (Spanning_tree.kruskal_mst g);
      let s = Stretch.max_edge_stretch g keep in
      s >= 1.0 -. 1e-9 && s <> Float.infinity)

let stretch_disconnected_infinite () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 1) ] in
  let keep = [| true; false; false |] in
  Alcotest.(check bool) "infinite" true
    (Stretch.max_edge_stretch g keep = Float.infinity)

let stretch_cycle_exact () =
  (* dropping one edge of an unweighted n-cycle gives stretch n-1 *)
  let g = Generators.cycle 8 in
  let keep = Array.make (Graph.m g) true in
  keep.(0) <- false;
  Alcotest.(check (float 1e-9)) "cycle stretch" 7.0 (Stretch.max_edge_stretch g keep)

let mean_stretch_bounded_by_max =
  qcheck "mean <= max stretch" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let rng = Rng.create seed in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.bernoulli rng 0.8) in
      List.iter (fun e -> keep.(e) <- true) (Spanning_tree.kruskal_mst g);
      Stretch.mean_edge_stretch g keep
      <= Stretch.max_edge_stretch g keep +. 1e-9)

(* ---------- partition / contraction ---------- *)

let partition_trivial =
  qcheck "trivial partition validates" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let p = Partition.trivial g in
      Partition.validate p = Ok ()
      && Partition.count p = Graph.n g
      && Partition.max_radius p = 0
      && Partition.is_partition p)

let partition_of_cluster_of () =
  let g = Generators.path 6 in
  let p = Partition.of_cluster_of g [| 0; 0; 0; 1; 1; 1 |] in
  check_ok "validate" (Partition.validate p);
  Alcotest.(check int) "count" 2 (Partition.count p);
  Alcotest.(check int) "radius" 2 (Partition.max_radius p);
  Alcotest.(check (list int)) "sizes" [ 3; 3 ]
    (Array.to_list (Partition.sizes p));
  Alcotest.(check int) "tree edges" 4 (List.length (Partition.tree_edges p))

let partition_rejects_disconnected_cluster () =
  let g = Generators.path 4 in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Partition.of_cluster_of: cluster not connected")
    (fun () -> ignore (Partition.of_cluster_of g [| 0; 1; 1; 0 |]))

let partition_restrict () =
  let g = Generators.path 6 in
  let p = Partition.of_cluster_of g [| 0; 0; 1; 1; 2; 2 |] in
  let p' = Partition.restrict p ~keep_cluster:(fun c -> c <> 1) in
  check_ok "validate" (Partition.validate p');
  Alcotest.(check int) "count" 2 (Partition.count p');
  Alcotest.(check int) "unclustered" (-1) p'.Partition.cluster_of.(2)

let contraction_quotient () =
  let g =
    Graph.of_edges ~n:6
      [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (4, 5, 1); (2, 3, 7); (1, 4, 3) ]
  in
  let p = Partition.of_cluster_of g [| 0; 0; 0; 1; 1; 1 |] in
  let c = Contraction.make g p in
  Alcotest.(check int) "quotient n" 2 (Graph.n c.Contraction.quotient);
  Alcotest.(check int) "quotient m" 1 (Graph.m c.Contraction.quotient);
  Alcotest.(check int) "min weight kept" 3 (Graph.weight c.Contraction.quotient 0);
  let orig = c.Contraction.repr_eid.(0) in
  let u, v = Graph.endpoints g orig in
  Alcotest.(check (pair int int)) "representative is the 1-4 edge" (1, 4) (u, v)

let contraction_pullback_valid =
  qcheck "pull_back returns base edges crossing clusters" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let rng = Rng.create seed in
      let nc = 1 + Rng.int rng 5 in
      let assign = Array.init (Graph.n g) (fun _ -> Rng.int rng nc) in
      let c = Contraction.of_cluster_of g assign nc in
      let q = c.Contraction.quotient in
      let all = List.init (Graph.m q) (fun i -> i) in
      List.for_all
        (fun base_eid ->
          let u, v = Graph.endpoints g base_eid in
          assign.(u) <> assign.(v))
        (Contraction.pull_back c all))

let suite =
  [
    case "construction: basics" construction_basics;
    case "construction: merges parallel" construction_merges_parallel;
    case "construction: rejects self-loop" construction_rejects_self_loop;
    case "construction: rejects bad endpoint" construction_rejects_bad_endpoint;
    case "construction: rejects negative weight" construction_rejects_negative_weight;
    endpoints_canonical;
    adjacency_consistent;
    case "other_endpoint" other_endpoint;
    sub_by_eids_roundtrip;
    sub_with_mapping_correct;
    with_unit_weights_same_ids;
    io_roundtrip;
    case "io: rejects garbage" io_rejects_garbage;
    case "io: comments" io_comments;
    case "gen: path" gen_path;
    case "gen: cycle" gen_cycle;
    case "gen: complete" gen_complete;
    case "gen: grid" gen_grid;
    case "gen: torus" gen_torus;
    case "gen: hypercube" gen_hypercube;
    case "gen: star/tree/caterpillar" gen_star_binary_caterpillar;
    case "gen: harary connectivity" gen_harary_connectivity;
    gen_gnp_connected;
    case "gen: gnp density" gen_gnp_density;
    gen_gnm_exact;
    case "gen: geometric" gen_geometric;
    case "gen: preferential attachment" gen_preferential;
    gen_randomize_weights;
    case "bfs: path distances" bfs_path_distances;
    case "bfs: unreachable" bfs_unreachable;
    bfs_tree_valid;
    case "bfs: multi-source" bfs_multi_source;
    dijkstra_vs_bellman;
    dijkstra_vs_bfs_unit;
    dijkstra_point_to_point;
    case "dijkstra: restricted edges" dijkstra_restricted;
    dijkstra_triangle_inequality;
    case "components: count" components_count;
    spans_detects_broken;
    mst_weights_agree;
    mst_is_spanning_forest;
    case "mst: known minimum" mst_minimality_small;
    case "maxflow: known" maxflow_known;
    case "maxflow: limit" maxflow_limit;
    edge_connectivity_matches_stoer_wagner;
    case "lambda: disconnected" edge_connectivity_disconnected;
    case "lambda: upper saturates" edge_connectivity_upper_saturates;
    case "mincut: weighted" mincut_weighted;
    stretch_full_graph_is_one;
    stretch_mst_finite;
    case "stretch: disconnected infinite" stretch_disconnected_infinite;
    case "stretch: cycle exact" stretch_cycle_exact;
    mean_stretch_bounded_by_max;
    partition_trivial;
    case "partition: of_cluster_of" partition_of_cluster_of;
    case "partition: rejects disconnected" partition_rejects_disconnected_cluster;
    case "partition: restrict" partition_restrict;
    case "contraction: quotient" contraction_quotient;
    contraction_pullback_valid;
  ]

(* ---------- DIMACS + extra generators (added with the extensions) ---------- *)

let dimacs_roundtrip =
  qcheck "DIMACS save/load identity" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let g' = Graph_io.of_dimacs (Graph_io.to_dimacs g) in
      Graph.n g = Graph.n g'
      && Array.for_all2 (fun a b -> a = b) (Graph.edges g) (Graph.edges g'))

let dimacs_parses_comments () =
  let g = Graph_io.of_dimacs "c hello\np sp 3 2\na 1 2 5\na 2 1 5\n" in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 1 (Graph.m g);
  Alcotest.(check int) "w" 5 (Graph.weight g 0)

let dimacs_rejects_garbage () =
  Alcotest.check_raises "no p line"
    (Failure "Graph_io: DIMACS input has no problem line") (fun () ->
      ignore (Graph_io.of_dimacs "a 1 2 3\n"));
  Alcotest.check_raises "hostile p line"
    (Failure "Graph_io: vertex count 999999999999 exceeds the cap of 16777216")
    (fun () -> ignore (Graph_io.of_dimacs "p sp 999999999999 0\n"))

let gen_random_regular =
  qcheck "random_regular near-regular" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Generators.random_regular ~rng ~n:100 ~d:4 in
      (* configuration model drops a few stubs; degrees are <= d and most
         vertices hit d exactly *)
      let full = ref 0 in
      for v = 0 to 99 do
        if Graph.degree g v > 4 then full := -1000;
        if Graph.degree g v = 4 then incr full
      done;
      !full >= 60)

let gen_random_regular_rejects_odd () =
  Alcotest.check_raises "odd stubs"
    (Invalid_argument "Generators.random_regular: n*d must be even") (fun () ->
      ignore (Generators.random_regular ~rng:(Rng.create 1) ~n:5 ~d:3))

let gen_lollipop () =
  let g = Generators.lollipop 10 20 in
  Alcotest.(check int) "n" 30 (Graph.n g);
  Alcotest.(check int) "m" (45 + 20) (Graph.m g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g);
  Alcotest.(check int) "diameter" 21 (Bfs.diameter_hops g)

(* [sub_with_mapping] indexes the filtered canonical edge records
   directly; it must build exactly what the triple route builds, i.e.
   [of_edge_array] over the kept (u, v, w) triples: the same edges, ids
   and CSR arrays, and the kept ids ascending as the mapping. *)
let sub_with_mapping_matches_triple_route =
  qcheck ~count:40 "sub_with_mapping == of_edge_array over kept triples"
    seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let rng = Rng.create (seed + 2) in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.int rng 3 > 0) in
      let sub, mapping = Graph.sub_with_mapping g keep in
      let kept =
        List.filter (fun id -> keep.(id)) (List.init (Graph.m g) Fun.id)
      in
      let triples =
        Array.of_list
          (List.map
             (fun id ->
               let e = Graph.edge g id in
               (e.Graph.u, e.Graph.v, e.Graph.w))
             kept)
      in
      sub = Graph.of_edge_array ~n:(Graph.n g) triples
      && mapping = Array.of_list kept
      && Graph.sub_by_eids g keep = sub)

(* [splice] merges an edit set into the canonical edge array; it must
   build exactly what [of_edge_array] builds over the surviving and
   inserted triples (re-inserting a deleted pair included), and map each
   old id to its edge's new id, or to -1 when deleted. *)
let splice_matches_triple_route =
  qcheck ~count:40 "splice == of_edge_array over surviving + inserted"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 seed in
      let n = Graph.n g and m = Graph.m g in
      let rng = Rng.create (seed + 3) in
      let gone = Array.init m (fun _ -> Rng.int rng 4 = 0) in
      let triple id =
        let e = Graph.edge g id in
        (e.Graph.u, e.Graph.v, e.Graph.w)
      in
      let fresh_pairs =
        List.filter_map
          (fun _ ->
            let a = Rng.int rng n and b = Rng.int rng n in
            if a = b || Graph.mem_edge g a b then None
            else Some (min a b, max a b))
          (List.init 12 Fun.id)
      in
      let reinserted =
        List.filter_map
          (fun id ->
            if gone.(id) && Rng.int rng 2 = 0 then
              let u, v, _ = triple id in
              Some (u, v)
            else None)
          (List.init m Fun.id)
      in
      let insert =
        List.map
          (fun (u, v) -> (u, v, 1 + ((u + v) mod 9)))
          (List.sort_uniq compare (fresh_pairs @ reinserted))
      in
      let ids = List.init m Fun.id in
      let delete = List.filter (fun id -> gone.(id)) ids in
      let survivors = List.filter (fun id -> not gone.(id)) ids in
      let g', map =
        Graph.splice g ~delete:(Array.of_list delete)
          ~insert:(Array.of_list insert)
      in
      g'
      = Graph.of_edge_array ~n
          (Array.of_list (List.map triple survivors @ insert))
      && List.for_all (fun id -> map.(id) = -1) delete
      && List.for_all
           (fun id ->
             let e = Graph.edge g' map.(id) in
             (e.Graph.u, e.Graph.v, e.Graph.w) = triple id)
           survivors)

let splice_rejects_malformed () =
  let g = Generators.cycle 6 in
  let rejects name ~delete ~insert =
    Alcotest.(check bool) name true
      (match Graph.splice g ~delete ~insert with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  rejects "insert joins a surviving edge" ~delete:[||] ~insert:[| (0, 1, 2) |];
  rejects "inserts out of order" ~delete:[||]
    ~insert:[| (1, 4, 1); (0, 2, 1) |];
  rejects "non-canonical insert" ~delete:[||] ~insert:[| (2, 0, 1) |];
  rejects "deletes out of order" ~delete:[| 3; 1 |] ~insert:[||];
  rejects "delete out of range" ~delete:[| 6 |] ~insert:[||];
  let g', _ = Graph.splice g ~delete:[| 0 |] ~insert:[| (0, 1, 5) |] in
  Alcotest.(check (option int)) "re-insert of a deleted pair" (Some 5)
    (Option.map (Graph.weight g') (Graph.find_edge g' 0 1))

let suite =
  suite
  @ [
      sub_with_mapping_matches_triple_route;
      splice_matches_triple_route;
      case "splice: malformed edit sets rejected" splice_rejects_malformed;
    ]

(* ---------- streamed construction ---------- *)

(* of_edge_iter must produce the exact structure of of_edge_array on the
   same multiset of triples — same canonical edge order, ids, CSR. *)
let collect_triples s =
  let acc = ref [] in
  Generators.Streamed.iter s (fun u v w -> acc := (u, v, w) :: !acc);
  Array.of_list (List.rev !acc)

let streamed_matches_materialized s =
  Generators.Streamed.graph s
  = Graph.of_edge_array ~n:(Generators.Streamed.n s) (collect_triples s)

let streamed_grid_torus () =
  Alcotest.(check bool) "grid == streamed grid" true
    (Generators.grid 7 9 = Generators.Streamed.graph (Generators.Streamed.grid 7 9));
  Alcotest.(check bool) "torus == streamed torus" true
    (Generators.torus 5 6 = Generators.Streamed.graph (Generators.Streamed.torus 5 6))

let streamed_equivalence =
  qcheck ~count:40 "streamed: of_edge_iter == of_edge_array" seed_gen
    (fun seed ->
      let n = 3 + (seed mod 60) in
      streamed_matches_materialized
        (Generators.Streamed.degree_bounded ~seed ~n ~degree:(2 + (seed mod 5)))
      && streamed_matches_materialized
           (Generators.Streamed.preferential ~seed ~n:(n + 4)
              ~degree:(1 + (seed mod 4))))

let streamed_dedups_min_weight () =
  (* parallel edges across the two passes: min weight must survive, in
     canonical order, like [canonicalize]. *)
  let iter f =
    f 2 1 9;
    f 1 2 4;
    f 0 1 7;
    f 1 0 7
  in
  let g = Graph.of_edge_iter ~n:3 iter in
  let g' = Graph.of_edge_array ~n:3 [| (2, 1, 9); (1, 2, 4); (0, 1, 7); (1, 0, 7) |] in
  Alcotest.(check bool) "dedup parity" true (g = g');
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check int) "w(1,2)" 4
    (match Graph.find_edge g 1 2 with Some e -> Graph.weight g e | None -> -1)

let streamed_rejects_bad_input () =
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.of_edge_iter: self-loop") (fun () ->
      ignore (Graph.of_edge_iter ~n:3 (fun f -> f 1 1 1)));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edge_iter: endpoint out of range") (fun () ->
      ignore (Graph.of_edge_iter ~n:3 (fun f -> f 0 3 1)));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Graph.of_edge_iter: negative weight") (fun () ->
      ignore (Graph.of_edge_iter ~n:3 (fun f -> f 0 1 (-1))));
  (* a stream that shrinks between the counting and scatter passes *)
  let calls = ref 0 in
  let flaky f =
    incr calls;
    if !calls = 1 then begin
      f 0 1 1;
      f 1 2 1
    end
    else f 0 1 1
  in
  Alcotest.check_raises "replay mismatch"
    (Invalid_argument "Graph.of_edge_iter: stream changed between passes")
    (fun () -> ignore (Graph.of_edge_iter ~n:3 flaky))

let streamed_connected () =
  let db = Generators.Streamed.degree_bounded ~seed:11 ~n:500 ~degree:4 in
  let pa = Generators.Streamed.preferential ~seed:11 ~n:500 ~degree:3 in
  Alcotest.(check bool) "degree_bounded connected" true
    (Connectivity.is_connected (Generators.Streamed.graph db));
  Alcotest.(check bool) "preferential connected" true
    (Connectivity.is_connected (Generators.Streamed.graph pa))

let suite =
  suite
  @ [
      dimacs_roundtrip;
      case "dimacs: comments" dimacs_parses_comments;
      case "dimacs: rejects garbage" dimacs_rejects_garbage;
      gen_random_regular;
      case "gen: random_regular odd" gen_random_regular_rejects_odd;
      case "gen: lollipop" gen_lollipop;
      case "streamed: grid/torus parity" streamed_grid_torus;
      streamed_equivalence;
      case "streamed: parallel-edge dedup" streamed_dedups_min_weight;
      case "streamed: bad input rejected" streamed_rejects_bad_input;
      case "streamed: families connected" streamed_connected;
    ]

(* ---------- contraction against the hash-table oracle ---------- *)

(* The hash-table contraction the radix version replaced: the best
   (weight, base eid) per unordered cluster pair, sorted. *)
let hashtbl_contraction ?(allow = fun _ -> true) g cluster_of count =
  let best : (int * int, int * int) Hashtbl.t = Hashtbl.create 97 in
  Graph.iter_edges g (fun e ->
      let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
      if allow e.Graph.id && cu >= 0 && cv >= 0 && cu <> cv then begin
        let key = if cu < cv then (cu, cv) else (cv, cu) in
        match Hashtbl.find_opt best key with
        | Some (w, eid) when (w, eid) <= (e.Graph.w, e.Graph.id) -> ()
        | _ -> Hashtbl.replace best key (e.Graph.w, e.Graph.id)
      end);
  let sorted =
    List.sort compare
      (Hashtbl.fold (fun (cu, cv) (w, eid) acc -> (cu, cv, w, eid) :: acc) best [])
  in
  ( Graph.of_edges ~n:count (List.map (fun (u, v, w, _) -> (u, v, w)) sorted),
    Array.of_list (List.map (fun (_, _, _, eid) -> eid) sorted) )

(* Random assignments with dropped vertices (-1) and empty clusters (ids
   up to twice the number used), an optional allow filter, and weights in
   1..3 half of the time so that equal-weight pairs must fall to the
   smallest edge id. *)
let contraction_matches_hashtbl =
  qcheck ~count:200 "contraction == hash-table oracle" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let max_w = if seed mod 2 = 0 then 3 else 100 in
      let g = graph_of_seed ~n_max:80 ~max_w seed in
      let n = Graph.n g in
      let count = 1 + Rng.int rng (max 1 (n / 2)) in
      let used = 1 + Rng.int rng count in
      let cluster_of =
        Array.init n (fun _ ->
            if Rng.int rng 8 = 0 then -1 else Rng.int rng used * (count / used))
      in
      let allow =
        if seed mod 3 = 0 then None
        else
          let mask = Array.init (Graph.m g) (fun _ -> Rng.int rng 4 > 0) in
          Some (fun eid -> mask.(eid))
      in
      let c = Contraction.of_cluster_of ?allow g cluster_of count in
      let q, repr = hashtbl_contraction ?allow g cluster_of count in
      c.Contraction.quotient = q && c.Contraction.repr_eid = repr)

(* A mask that keeps every edge returns the graph itself. *)
let sub_with_mapping_full_mask () =
  let g = graph_of_seed 7 in
  let g', map = Graph.sub_with_mapping g (Array.make (Graph.m g) true) in
  Alcotest.(check bool) "same graph" true (g' == g);
  Alcotest.(check bool) "identity map" true
    (map = Array.init (Graph.m g) Fun.id)

(* The Dijkstra kernel against Floyd-Warshall on the masked subgraph.
   With a budget and a target set, every target within the budget reads
   its exact distance and every vertex beyond the budget reads infinity.
   Without targets, the search settles exactly the vertices within the
   budget, each at its exact distance, and scans each one's kept arcs
   once. *)
let dijkstra_budget_targets_match_fw =
  qcheck ~count:40 "dijkstra: budget and targets match Floyd-Warshall"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let rng = Rng.create (seed + 1) in
      let n = Graph.n g in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.int rng 4 > 0) in
      let fw = Apsp.floyd_warshall (Graph.sub_by_eids g keep) in
      let s = Rng.int rng n and budget = Rng.int rng 300 in
      let targets = Array.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n) in
      let vertices = List.init n Fun.id in
      let expect v =
        if fw.(s).(v) <= budget then fw.(s).(v) else Dijkstra.infinity
      in
      ignore (Dijkstra.search ~keep ~budget ~targets g s);
      let targets_ok =
        Array.for_all (fun t -> Dijkstra.dist t = expect t) targets
      in
      let beyond_ok =
        List.for_all
          (fun v -> fw.(s).(v) <= budget || Dijkstra.dist v = Dijkstra.infinity)
          vertices
      in
      let scanned = Dijkstra.search ~keep ~budget g s in
      let kept_arcs =
        List.fold_left
          (fun acc v ->
            if fw.(s).(v) > budget then acc
            else
              Graph.fold_adj g v
                (fun acc _ e -> if keep.(e) then acc + 1 else acc)
                acc)
          0 vertices
      in
      targets_ok && beyond_ok && scanned = kept_arcs
      && List.for_all (fun v -> Dijkstra.dist v = expect v) vertices)

let suite =
  suite
  @ [
      contraction_matches_hashtbl;
      case "sub_with_mapping: full mask shares the graph"
        sub_with_mapping_full_mask;
      dijkstra_budget_targets_match_fw;
    ]

(* ---------- multi-source balls against per-source searches ---------- *)

(* [Dijkstra.balls] against its oracle, one budgeted [Dijkstra.search]
   per source read through [iter_reached]: the same distance rows, the
   same union of balls and the same work charge (kept arcs scanned plus
   vertices reached, summed over the sources).  Graphs: unit-weight
   G(n,p), tori, graphs of girth > 2k (greedy (2k-1)-spanners of a
   unit-weight G(n,p), built as [keeps_girth_tight_graphs] in
   test_spanner.ml builds them: every ball of radius < k is a tree) and
   weighted G(n,p) (the per-source branch); masks: none, empty or
   random; radii 0..2k-1; 1, 62, 63 or 130 sources (one, one, two or
   three words of 62 sources on a 64-bit host), the last a repeat of the
   first. *)
let balls_match_searches =
  qcheck ~count:200 "dijkstra: balls == per-source searches" seed_gen
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let k = 1 + Rng.int rng 4 in
      let g =
        match seed mod 4 with
        | 0 -> unit_graph_of_seed ~n_max:90 seed
        | 1 -> Generators.torus (3 + Rng.int rng 8) (3 + Rng.int rng 8)
        | 2 ->
            let g0 = unit_graph_of_seed ~n_max:80 seed in
            Graph.sub_by_eids g0 (Greedy.run ~k g0).Spanner.keep
        | _ -> graph_of_seed ~n_max:60 ~max_w:4 seed
      in
      let n = Graph.n g and m = Graph.m g in
      let keep =
        match Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (Array.make m false)
        | _ -> Some (Array.init m (fun _ -> Rng.int rng 5 > 0))
      in
      let budget = Rng.int rng (2 * k) in
      let ns = [| 1; 62; 63; 130 |].(Rng.int rng 4) in
      let sources = Array.init ns (fun _ -> Rng.int rng n) in
      sources.(ns - 1) <- sources.(0);
      let b = Dijkstra.balls ?keep ~budget g sources in
      let dists = Array.sub b.Dijkstra.dists 0 (ns * n)
      and covered = Array.sub b.Dijkstra.covered 0 n in
      let expect = Array.make (ns * n) Dijkstra.infinity
      and union = Array.make n false
      and work = ref 0 in
      Array.iteri
        (fun i s ->
          work := !work + Dijkstra.search ?keep ~budget g s;
          Dijkstra.iter_reached (fun v d ->
              incr work;
              union.(v) <- true;
              expect.((i * n) + v) <- d))
        sources;
      dists = expect && covered = union && b.Dijkstra.work = !work)

(* A warmed-up [Dijkstra.balls] call allocates a constant number of words
   (the result record, the mask match and the range check's closure; 26
   words with the measurement here), whatever n, the number of sources and
   the branch: every array it writes is the domain's scratch, grown by the
   first call. *)
let balls_alloc_constant () =
  List.iter
    (fun (n, ns, max_w) ->
      let g =
        Generators.weighted_connected_gnp ~rng:(Rng.create n) ~n
          ~avg_degree:8.0 ~max_w
      in
      let keep = Array.init (Graph.m g) (fun e -> e mod 7 <> 0) in
      let sources = Array.init ns (fun i -> i * 7919 mod n) in
      let run () = Dijkstra.balls ~keep ~budget:(5 * max_w) g sources in
      ignore (run ());
      let _, w = alloc_words run in
      check_words
        (Printf.sprintf "balls n=%d sources=%d max_w=%d" n ns max_w)
        ~ceiling:64. (total_words w))
    [
      (256, 1, 1); (256, 130, 1); (2048, 1, 1); (2048, 130, 1);
      (256, 1, 8); (256, 130, 8); (2048, 1, 8); (2048, 130, 8);
    ]

let suite =
  suite
  @ [
      balls_match_searches;
      case "dijkstra: warm balls allocate O(1) words" balls_alloc_constant;
    ]
