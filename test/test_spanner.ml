open Ultraspan
open Helpers

let stretch_of g (sp : Spanner.t) = Stretch.max_edge_stretch g sp.Spanner.keep

(* ---------- Spanner basics ---------- *)

let spanner_of_eids () =
  let g = Generators.path 5 in
  let sp = Spanner.of_eids g [ 0; 2 ] in
  Alcotest.(check int) "size" 2 (Spanner.size sp);
  Alcotest.(check (list int)) "eids" [ 0; 2 ] (Spanner.eids sp);
  Alcotest.(check bool) "mem" true (Spanner.mem sp 2);
  Alcotest.(check bool) "not spanning" false (Spanner.is_spanning g sp)

let spanner_union () =
  let g = Generators.path 4 in
  let a = Spanner.of_eids g [ 0 ] and b = Spanner.of_eids g [ 1; 2 ] in
  let u = Spanner.union a b in
  Alcotest.(check int) "union size" 3 (Spanner.size u);
  Alcotest.(check bool) "spanning" true (Spanner.is_spanning g u)

let spanner_validate () =
  let g = Generators.cycle 6 in
  let all = Spanner.of_eids g (List.init (Graph.m g) Fun.id) in
  check_ok "full graph validates" (Spanner.validate g all ~alpha:1.0);
  let most = Spanner.of_eids g [ 0; 1; 2; 3; 4 ] in
  check_ok "cycle minus edge at alpha 5" (Spanner.validate g most ~alpha:5.0);
  (match Spanner.validate g most ~alpha:2.0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stretch 5 should fail at alpha 2");
  match Spanner.validate g (Spanner.of_eids g [ 0 ]) ~alpha:10.0 with
  | Error "not spanning" -> ()
  | _ -> Alcotest.fail "expected not spanning"

(* ---------- Baswana–Sen randomized ---------- *)

let bs_spanning_and_stretch =
  qcheck ~count:25 "BS: spanning with stretch <= 2k-1" seed_gen (fun seed ->
      let g = graph_of_seed seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 4 in
      let out = Baswana_sen.run ~rng ~k g in
      Spanner.is_spanning g out.Baswana_sen.spanner
      && stretch_of g out.Baswana_sen.spanner
         <= float_of_int ((2 * k) - 1) +. 1e-9)

let bs_unweighted =
  qcheck ~count:20 "BS unweighted: stretch <= 2k-1" seed_gen (fun seed ->
      let g = unit_graph_of_seed seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 4 in
      let out = Baswana_sen.run ~rng ~k g in
      Spanner.is_spanning g out.Baswana_sen.spanner
      && stretch_of g out.Baswana_sen.spanner
         <= float_of_int ((2 * k) - 1) +. 1e-9)

let bs_all_die () =
  let rng = Rng.create 3 in
  let g = graph_of_seed 17 in
  let out = Baswana_sen.run ~rng ~k:3 g in
  let total_died =
    List.fold_left (fun a s -> a + s.Bs_core.died) 0 out.Baswana_sen.per_iteration
  in
  Alcotest.(check int) "every vertex dies" (Graph.n g) total_died

let bs_size_statistical () =
  (* mean size over seeds stays within the analytical bound *)
  let rng0 = Rng.create 77 in
  let g =
    Generators.weighted_connected_gnp ~rng:rng0 ~n:300 ~avg_degree:30.0
      ~max_w:1000
  in
  let k = 3 in
  let sizes =
    List.init 10 (fun i ->
        let rng = Rng.create (1000 + i) in
        float_of_int (Spanner.size (Baswana_sen.run ~rng ~k g).Baswana_sen.spanner))
  in
  let mean = Stats.mean (Array.of_list sizes) in
  let bound = Baswana_sen.size_bound ~n:(Graph.n g) ~k ~weighted:true in
  Alcotest.(check bool) "mean within bound" true (mean <= bound)

let bs_k1_gives_whole_graph () =
  let g = graph_of_seed 5 in
  let rng = Rng.create 1 in
  let out = Baswana_sen.run ~rng ~k:1 g in
  (* k = 1: single finishing iteration; stretch must be 1, i.e. every edge
     kept (all clusters are singletons and every edge is a minimum) *)
  Alcotest.(check int) "all edges" (Graph.m g) (Spanner.size out.Baswana_sen.spanner)

let bs_handles_disconnected () =
  let g = Graph.of_edges ~n:6 [ (0, 1, 2); (1, 2, 3); (3, 4, 1); (4, 5, 9) ] in
  let rng = Rng.create 2 in
  let out = Baswana_sen.run ~rng ~k:2 g in
  Alcotest.(check bool) "spans components" true
    (Spanner.is_spanning g out.Baswana_sen.spanner)

(* ---------- Bs_core invariants ---------- *)

let bs_core_partition_valid_through_iterations =
  qcheck ~count:15 "BS state keeps a valid partition" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let rng = Rng.create seed in
      let state = Bs_core.create g in
      let ok = ref true in
      for i = 1 to 3 do
        let sampled =
          Array.init (Bs_core.n_clusters state) (fun _ -> Rng.bernoulli rng 0.3)
        in
        ignore (Bs_core.iteration state ~sampled);
        let p = Bs_core.partition state in
        (match Partition.validate p with Ok () -> () | Error _ -> ok := false);
        if Partition.max_radius p > i then ok := false
      done;
      !ok)

let bs_core_cluster_trees_in_spanner =
  qcheck ~count:15 "cluster tree edges are spanner edges" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let rng = Rng.create seed in
      let state = Bs_core.create g in
      let ok = ref true in
      for _ = 1 to 3 do
        let sampled =
          Array.init (Bs_core.n_clusters state) (fun _ -> Rng.bernoulli rng 0.4)
        in
        ignore (Bs_core.iteration state ~sampled);
        let p = Bs_core.partition state in
        let mask = Bs_core.spanner_mask state in
        List.iter
          (fun eid -> if not mask.(eid) then ok := false)
          (Partition.tree_edges p)
      done;
      !ok)

let bs_core_stretch_friendly_clusters =
  qcheck ~count:15 "BS clusterings are stretch-friendly (Lemma 3.1)"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:70 seed in
      let rng = Rng.create seed in
      let state = Bs_core.create g in
      let ok = ref true in
      for _ = 1 to 3 do
        let sampled =
          Array.init (Bs_core.n_clusters state) (fun _ -> Rng.bernoulli rng 0.4)
        in
        ignore (Bs_core.iteration state ~sampled);
        (* Lemma 3.1's boundary/inside properties hold w.r.t. the ALIVE
           edges (dead edges are excluded from the claim). *)
        if not (Stretch_friendly.is_stretch_friendly_alive g state) then
          ok := false
      done;
      !ok)

(* ---------- derandomized Baswana–Sen ---------- *)

let derand_deterministic =
  qcheck ~count:10 "derandomized BS is reproducible" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let a = Bs_derand.run ~k:3 g in
      let b = Bs_derand.run ~k:3 g in
      a.Bs_derand.spanner.Spanner.keep = b.Bs_derand.spanner.Spanner.keep)

let derand_spanning_and_stretch =
  qcheck ~count:15 "derand BS: spanning, stretch <= 2k-1" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 3 in
      let out = Bs_derand.run ~k g in
      Spanner.is_spanning g out.Bs_derand.spanner
      && stretch_of g out.Bs_derand.spanner <= float_of_int ((2 * k) - 1) +. 1e-9)

let derand_unweighted =
  qcheck ~count:15 "derand BS unweighted: spanning, stretch" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:100 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 3 in
      let out = Bs_derand.run ~k g in
      Spanner.is_spanning g out.Bs_derand.spanner
      && stretch_of g out.Bs_derand.spanner <= float_of_int ((2 * k) - 1) +. 1e-9)

let derand_guarantees_hold =
  qcheck ~count:15 "derand BS guarantees (Lemma 3.3) asserted" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let out = Bs_derand.run ~k:4 g in
      List.for_all
        (fun gu ->
          gu.Bs_derand.clusters <= gu.Bs_derand.cluster_bound
          && float_of_int gu.Bs_derand.edges_added
             <= gu.Bs_derand.edge_bound +. 1.0
          && gu.Bs_derand.high_degree_died = 0)
        out.Bs_derand.guarantees)

let derand_size_bound =
  qcheck ~count:10 "derand BS size within deterministic bound" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:120 seed in
      let k = 3 in
      let out = Bs_derand.run ~k g in
      float_of_int (Spanner.size out.Bs_derand.spanner)
      <= Bs_derand.size_bound ~n:(Graph.n g) ~k ~weighted:true)

let derand_nd_ordering_works () =
  let g = graph_of_seed ~n_max:60 11 in
  let out = Bs_derand.run ~ordering:Bs_derand.Network_decomposition ~k:3 g in
  Alcotest.(check bool) "spanning" true (Spanner.is_spanning g out.Bs_derand.spanner);
  Alcotest.(check bool) "stretch" true (stretch_of g out.Bs_derand.spanner <= 5.0);
  Alcotest.(check bool) "guarantees" true
    (List.for_all
       (fun gu -> gu.Bs_derand.high_degree_died = 0)
       out.Bs_derand.guarantees)

let derand_rejects_bad_p () =
  let g = Generators.path 4 in
  let state = Bs_core.create g in
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Bs_derand.simulate: p in (0,1)") (fun () ->
      ignore
        (Bs_derand.simulate ~state ~p:1.5 ~iters:1 ~rounds:(Rounds.create ()) ()))

(* ---------- stretch-friendly partitions (Lemma 4.1) ---------- *)

let sf_all_invariants =
  qcheck ~count:25 "Lemma 4.1 invariants" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let rng = Rng.create seed in
      (* keep t below n/2 so no component is smaller than t (the exempt
         case, tested separately) *)
      let t = max 1 (min (1 + Rng.int rng 16) (Graph.n g / 2)) in
      let p, _ = Stretch_friendly.partition ~t g in
      Partition.validate p = Ok ()
      && Partition.is_partition p
      && Partition.count p <= max 1 (Graph.n g / t)
      && Array.for_all (fun s -> s >= t) (Partition.sizes p)
      (* radius < 3·2^ceil(log2 t), i.e. < 6t in general and < 3t at
         powers of two — the paper's Lemma 4.1 bound *)
      && Partition.max_radius p < 3 * (1 lsl Stretch_friendly.iterations t)
      && Stretch_friendly.is_stretch_friendly g p)

let sf_unweighted =
  qcheck ~count:15 "Lemma 4.1 on unweighted graphs" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:150 seed in
      let t = max 1 (min 8 (Graph.n g / 2)) in
      let p, _ = Stretch_friendly.partition ~t g in
      Partition.validate p = Ok ()
      && Stretch_friendly.is_stretch_friendly g p
      && Array.for_all (fun s -> s >= t) (Partition.sizes p))

let sf_rounds_bound =
  qcheck "Lemma 4.1 round complexity O(t log* n)" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let rng = Rng.create seed in
      let t = 2 + Rng.int rng 16 in
      let _, info = Stretch_friendly.partition ~t g in
      let logstar = Coloring.log_star (Graph.n g) in
      Rounds.total info.Stretch_friendly.rounds <= 16 * t * (logstar + 6))

let sf_structured () =
  List.iter
    (fun (name, g, t) ->
      let p, _ = Stretch_friendly.partition ~t g in
      check_ok name (Partition.validate p);
      Alcotest.(check bool) (name ^ " sf") true
        (Stretch_friendly.is_stretch_friendly g p);
      Alcotest.(check bool) (name ^ " sizes") true
        (Array.for_all (fun s -> s >= t) (Partition.sizes p)))
    [
      ("path", Generators.path 64, 8);
      ("cycle", Generators.cycle 30, 4);
      ("grid", Generators.grid 12 12, 8);
      ("caterpillar", Generators.caterpillar 20 3, 8);
      ("complete", Generators.complete 32, 4);
    ]

let sf_exempt_small_components () =
  (* components smaller than t keep a whole-component cluster *)
  let g = Graph.of_edges ~n:7 [ (0, 1, 1); (1, 2, 1); (3, 4, 2); (5, 6, 1) ] in
  let p, _ = Stretch_friendly.partition ~t:4 g in
  check_ok "valid" (Partition.validate p);
  Alcotest.(check int) "one cluster per component" 3 (Partition.count p)

let sf_naive_star_valid =
  qcheck ~count:15 "naive-star ablation still valid + sf" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let t = max 1 (min 8 (Graph.n g / 2)) in
      let p, _ =
        Stretch_friendly.partition_with_strategy
          ~strategy:Stretch_friendly.Naive_star ~t g
      in
      Partition.validate p = Ok ()
      && Stretch_friendly.is_stretch_friendly g p
      && Array.for_all (fun s -> s >= t) (Partition.sizes p))

let sf_iterations () =
  List.iter
    (fun (t, want) ->
      Alcotest.(check int) (Printf.sprintf "t = %d" t) want
        (Stretch_friendly.iterations t))
    [
      (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (16, 4);
      (17, 5); ((1 lsl 40) + 1, 41); (max_int, 62);
    ]

(* Iteration i depends only on i and the partition before it, so a ~t
   state advanced once more is the fresh ~t:(2t) partition, and the ~t
   partition handed out before that advance still equals a fresh ~t one. *)
let sf_resume_matches_fresh =
  qcheck ~count:40 "Lemma 4.1: ~t advanced once = fresh ~t:(2t)" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:120 seed in
      let t = 1 + Rng.int (Rng.create seed) 16 in
      let key ((p : Partition.t), (i : Stretch_friendly.info)) =
        ( (p.Partition.cluster_of, p.Partition.parent, p.Partition.parent_eid),
          p.Partition.roots,
          ( i.Stretch_friendly.iterations,
            i.Stretch_friendly.cv_iterations,
            Rounds.total i.Stretch_friendly.rounds ) )
      in
      List.for_all
        (fun strategy ->
          let st = Stretch_friendly.start ~strategy g in
          for _ = 1 to Stretch_friendly.iterations t do
            Stretch_friendly.advance st
          done;
          let handed_out = Stretch_friendly.result st in
          Stretch_friendly.advance st;
          let fresh t = Stretch_friendly.partition_with_strategy ~strategy ~t g in
          key (Stretch_friendly.result st) = key (fresh (2 * t))
          && key handed_out = key (fresh t))
        [ Stretch_friendly.Matched; Stretch_friendly.Naive_star ])

(* ---------- linear-size spanner (Theorem 1.5) ---------- *)

let linear_size_deterministic_repro () =
  let g = graph_of_seed ~n_max:150 3 in
  let a = Linear_size.run g and b = Linear_size.run g in
  Alcotest.(check bool) "reproducible" true
    (a.Linear_size.spanner.Spanner.keep = b.Linear_size.spanner.Spanner.keep)

let linear_size_valid =
  qcheck ~count:15 "Thm 1.5: spanning + stretch <= bound" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:200 seed in
      let out = Linear_size.run g in
      Spanner.is_spanning g out.Linear_size.spanner
      && stretch_of g out.Linear_size.spanner
         <= out.Linear_size.stretch_bound +. 1e-9)

let linear_size_unweighted_valid =
  qcheck ~count:15 "Thm 1.5 unweighted" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:200 seed in
      let out = Linear_size.run g in
      Spanner.is_spanning g out.Linear_size.spanner
      && stretch_of g out.Linear_size.spanner
         <= out.Linear_size.stretch_bound +. 1e-9)

let linear_size_is_linear () =
  (* edges/n stays bounded as n grows (the O(n) size claim) *)
  let ratios =
    List.map
      (fun n ->
        let rng = Rng.create 42 in
        let g = Generators.connected_gnp ~rng ~n ~avg_degree:12.0 in
        let out = Linear_size.run g in
        float_of_int (Spanner.size out.Linear_size.spanner) /. float_of_int n)
      [ 400; 800; 1600 ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "ratio bounded" true (r <= 4.0))
    ratios

let linear_size_randomized_valid =
  qcheck ~count:10 "Pettie-style randomized variant" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let out =
        Linear_size.run ~variant:(Linear_size.Randomized (Rng.create seed)) g
      in
      Spanner.is_spanning g out.Linear_size.spanner
      && stretch_of g out.Linear_size.spanner
         <= out.Linear_size.stretch_bound +. 1e-9)

let linear_size_schedule_sane () =
  List.iter
    (fun n ->
      let sched = Linear_size.schedule ~weighted:false n in
      Alcotest.(check bool) "some phases" true (List.length sched >= 1);
      List.iter
        (fun (x, gi) ->
          Alcotest.(check bool) "x >= 2" true (x >= 2.0);
          Alcotest.(check bool) "g >= 1" true (gi >= 1))
        sched;
      (* x_i grow *)
      let xs = List.map fst sched in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "x_i nondecreasing" true (increasing xs))
    [ 16; 256; 65536; 10_000_000 ]

(* ---------- ultra-sparse (Theorems 1.2/1.6) ---------- *)

let ultra_sparse_size_guarantee =
  qcheck ~count:12 "Thm 1.6: size <= n + n/t" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:200 seed in
      let rng = Rng.create seed in
      let t = 1 + Rng.int rng 8 in
      let out = Ultra_sparse.run ~t g in
      Spanner.size out.Ultra_sparse.spanner <= Ultra_sparse.bound ~n:(Graph.n g) ~t
      && Spanner.is_spanning g out.Ultra_sparse.spanner)

let ultra_sparse_stretch_finite =
  qcheck ~count:12 "Thm 1.6: finite stretch" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let out = Ultra_sparse.run ~t:4 g in
      stretch_of g out.Ultra_sparse.spanner < Float.infinity)

let ultra_sparse_deterministic () =
  let g = graph_of_seed ~n_max:120 9 in
  let a = Ultra_sparse.run ~t:4 g and b = Ultra_sparse.run ~t:4 g in
  Alcotest.(check bool) "reproducible" true
    (a.Ultra_sparse.spanner.Spanner.keep = b.Ultra_sparse.spanner.Spanner.keep)

let ultra_sparse_stretch_scales () =
  (* stretch grows roughly linearly with t (times log n): check it stays
     under c * t_inner * stretch-bound-ish envelope *)
  let rng = Rng.create 31 in
  let g = Generators.weighted_connected_gnp ~rng ~n:800 ~avg_degree:10.0 ~max_w:100 in
  List.iter
    (fun t ->
      let out = Ultra_sparse.run ~t g in
      let s = stretch_of g out.Ultra_sparse.spanner in
      let envelope =
        float_of_int (6 * out.Ultra_sparse.t_inner)
        *. (Float.log2 (float_of_int (Graph.n g)) +. 1.0)
        *. 8.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "t=%d stretch %.1f under envelope %.1f" t s envelope)
        true (s <= envelope))
    [ 1; 2; 4; 8 ]

let ultra_sparse_structured () =
  List.iter
    (fun (name, g, t) ->
      let out = Ultra_sparse.run ~t g in
      Alcotest.(check bool) (name ^ " size") true
        (Spanner.size out.Ultra_sparse.spanner
        <= Ultra_sparse.bound ~n:(Graph.n g) ~t);
      Alcotest.(check bool) (name ^ " spanning") true
        (Spanner.is_spanning g out.Ultra_sparse.spanner))
    [
      ("grid", Generators.grid 15 15, 4);
      ("torus", Generators.torus 10 10, 2);
      ("hypercube", Generators.hypercube 8, 4);
      ("caterpillar", Generators.caterpillar 30 4, 8);
    ]

(* ---------- clustering spanners (Theorems 1.7, F.1) ---------- *)

let clustering_sparse_valid =
  qcheck ~count:12 "Thm 1.7: spanning, finite stretch" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:150 seed in
      let out = Clustering_spanner.sparse g in
      Spanner.is_spanning g out.Clustering_spanner.spanner
      && stretch_of g out.Clustering_spanner.spanner < Float.infinity)

let clustering_sparse_stretch_vs_diameter =
  qcheck ~count:10 "Thm 1.7: stretch O(tree diameter)" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:120 seed in
      let out = Clustering_spanner.sparse g in
      stretch_of g out.Clustering_spanner.spanner
      <= float_of_int ((2 * out.Clustering_spanner.max_tree_diameter) + 3))

let clustering_ultra_sparse_valid =
  qcheck ~count:10 "Thm F.1: spanning, witness invariants" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:120 seed in
      let rng = Rng.create seed in
      let t = 1 + Rng.int rng 3 in
      let out = Clustering_spanner.ultra_sparse ~t g in
      Spanner.is_spanning g out.Clustering_spanner.spanner
      && stretch_of g out.Clustering_spanner.spanner < Float.infinity
      && List.for_all
           (fun s -> s.Clustering_spanner.max_cut_distance < 4 * t)
           out.Clustering_spanner.steps)

let clustering_ultra_sparse_decay () =
  let g = Generators.grid 20 20 in
  let out = Clustering_spanner.ultra_sparse ~t:2 g in
  (* unclustered counts decay by >= 3/10 per step (Lemma F.2) *)
  let rec check_decay = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "decays" true
          (float_of_int b.Clustering_spanner.active_before
          <= 0.71 *. float_of_int a.Clustering_spanner.active_before);
        check_decay rest
    | _ -> ()
  in
  check_decay out.Clustering_spanner.steps

let clustering_rejects_weighted () =
  let g = graph_of_seed 3 in
  Alcotest.check_raises "weighted rejected"
    (Invalid_argument "Clustering_spanner: unweighted graphs only") (fun () ->
      ignore (Clustering_spanner.sparse g))

(* ---------- Elkin–Neiman ---------- *)

let en_valid =
  qcheck ~count:15 "EN: spanning with stretch <= 2k-1" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:120 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 4 in
      let out = Elkin_neiman.run ~rng ~k g in
      Spanner.is_spanning g out.Elkin_neiman.spanner
      && stretch_of g out.Elkin_neiman.spanner
         <= float_of_int ((2 * k) - 1) +. 1e-9)

let en_rejects_weighted () =
  let g = graph_of_seed 3 in
  Alcotest.check_raises "weighted rejected"
    (Invalid_argument "Elkin_neiman.run: unweighted graphs only") (fun () ->
      ignore (Elkin_neiman.run ~rng:(Rng.create 1) ~k:2 g))

(* ---------- greedy ---------- *)

let greedy_valid =
  qcheck ~count:12 "greedy: spanning + stretch <= 2k-1" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 3 in
      let sp = Greedy.run ~k g in
      Spanner.is_spanning g sp
      && stretch_of g sp <= float_of_int ((2 * k) - 1) +. 1e-9)

let greedy_girth =
  qcheck ~count:10 "greedy unweighted spanner has girth > 2k" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let sp = Greedy.run ~k:2 g in
      Greedy.girth_exceeds g sp.Spanner.keep 4)

let greedy_is_sparsest_baseline () =
  (* on a dense unweighted graph, greedy k=2 has at most n^1.5 + n edges *)
  let rng = Rng.create 4 in
  let g = Generators.connected_gnp ~rng ~n:150 ~avg_degree:40.0 in
  let g = Graph.with_unit_weights g in
  let sp = Greedy.run ~k:2 g in
  let bound = (float_of_int (Graph.n g) ** 1.5) +. float_of_int (Graph.n g) in
  Alcotest.(check bool) "girth bound size" true
    (float_of_int (Spanner.size sp) <= bound)

(* ---------- weighted reduction ---------- *)

let weighted_reduction_valid =
  qcheck ~count:10 "folklore reduction: spanning + stretch" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:80 ~max_w:200 seed in
      let k = 2 in
      let unweighted h =
        (Bs_derand.run ~k h).Bs_derand.spanner
      in
      let out = Weighted_reduction.run ~unweighted ~epsilon:0.5 g in
      Spanner.is_spanning g out.Weighted_reduction.spanner
      && stretch_of g out.Weighted_reduction.spanner
         <= 1.5 *. float_of_int ((2 * k) - 1) +. 1e-9)

let weighted_reduction_classes () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (1, 2, 10); (2, 3, 100) ] in
  let out =
    Weighted_reduction.run
      ~unweighted:(fun h -> Spanner.of_eids h (List.init (Graph.m h) Fun.id))
      ~epsilon:1.0 g
  in
  Alcotest.(check int) "three classes" 3 out.Weighted_reduction.classes;
  Alcotest.(check int) "all edges kept" 3 (Spanner.size out.Weighted_reduction.spanner)

let suite =
  [
    case "spanner: of_eids" spanner_of_eids;
    case "spanner: union" spanner_union;
    case "spanner: validate" spanner_validate;
    bs_spanning_and_stretch;
    bs_unweighted;
    case "bs: all vertices die" bs_all_die;
    slow_case "bs: size statistical" bs_size_statistical;
    case "bs: k=1 keeps everything" bs_k1_gives_whole_graph;
    case "bs: disconnected input" bs_handles_disconnected;
    bs_core_partition_valid_through_iterations;
    bs_core_cluster_trees_in_spanner;
    bs_core_stretch_friendly_clusters;
    derand_deterministic;
    derand_spanning_and_stretch;
    derand_unweighted;
    derand_guarantees_hold;
    derand_size_bound;
    case "derand: nd ordering" derand_nd_ordering_works;
    case "derand: rejects bad p" derand_rejects_bad_p;
    sf_all_invariants;
    sf_unweighted;
    sf_rounds_bound;
    case "sf: structured graphs" sf_structured;
    case "sf: exempt small components" sf_exempt_small_components;
    sf_naive_star_valid;
    case "linear: reproducible" linear_size_deterministic_repro;
    linear_size_valid;
    linear_size_unweighted_valid;
    slow_case "linear: size is O(n)" linear_size_is_linear;
    linear_size_randomized_valid;
    case "linear: schedule sane" linear_size_schedule_sane;
    ultra_sparse_size_guarantee;
    ultra_sparse_stretch_finite;
    case "ultra: reproducible" ultra_sparse_deterministic;
    slow_case "ultra: stretch scales with t" ultra_sparse_stretch_scales;
    case "ultra: structured graphs" ultra_sparse_structured;
    clustering_sparse_valid;
    clustering_sparse_stretch_vs_diameter;
    clustering_ultra_sparse_valid;
    case "clustering: decay (Lemma F.2)" clustering_ultra_sparse_decay;
    case "clustering: rejects weighted" clustering_rejects_weighted;
    en_valid;
    case "en: rejects weighted" en_rejects_weighted;
    greedy_valid;
    greedy_girth;
    case "greedy: size baseline" greedy_is_sparsest_baseline;
    weighted_reduction_valid;
    case "weighted reduction: classes" weighted_reduction_classes;
  ]

(* ---------- Lemma 3.1: per-iteration stretch certificates ---------- *)

let lemma_3_1_death_stretch =
  qcheck ~count:12 "Lemma 3.1: edge dead at iter i has stretch <= 2i-1"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let rng = Rng.create seed in
      let state = Bs_core.create g in
      let k = 4 in
      let p = float_of_int (Graph.n g) ** (-1.0 /. float_of_int k) in
      for _ = 1 to k - 1 do
        let sampled =
          Array.init (Bs_core.n_clusters state) (fun _ -> Rng.bernoulli rng p)
        in
        ignore (Bs_core.iteration state ~sampled)
      done;
      ignore (Bs_core.finish state);
      let keep = Bs_core.spanner_mask state in
      let death = Bs_core.death_iteration state in
      let ok = ref true in
      Graph.iter_edges g (fun e ->
          let i = death.(e.Graph.id) in
          if i >= 0 && !ok then begin
            let d =
              Dijkstra.distance ~allow:(fun eid -> keep.(eid)) g e.Graph.u
                e.Graph.v
            in
            if d > ((2 * i) - 1) * e.Graph.w then ok := false
          end);
      (* sanity of the tracking itself: after finish, every edge is dead *)
      Array.iter (fun i -> if i < 0 then ok := false) death;
      !ok)

let death_iterations_monotone_with_aliveness =
  qcheck ~count:10 "edge death bookkeeping consistent" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let rng = Rng.create seed in
      let state = Bs_core.create g in
      let ok = ref true in
      for it = 1 to 3 do
        let sampled =
          Array.init (Bs_core.n_clusters state) (fun _ -> Rng.bernoulli rng 0.3)
        in
        ignore (Bs_core.iteration state ~sampled);
        let death = Bs_core.death_iteration state in
        Graph.iter_edges g (fun e ->
            let alive = Bs_core.edge_alive state e.Graph.id in
            let d = death.(e.Graph.id) in
            if alive && d <> -1 then ok := false;
            if (not alive) && (d < 1 || d > it) then ok := false;
            (* an edge with a dead endpoint must be dead *)
            if
              alive
              && not
                   (Bs_core.vertex_alive state e.Graph.u
                   && Bs_core.vertex_alive state e.Graph.v)
            then ok := false)
      done;
      !ok)

let suite =
  suite
  @ [ lemma_3_1_death_stretch; death_iterations_monotone_with_aliveness ]

let clustering_sparse_separation2 =
  qcheck ~count:8 "Thm 1.7 at separation 2 still valid" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:100 seed in
      let out = Clustering_spanner.sparse ~separation:2 g in
      Spanner.is_spanning g out.Clustering_spanner.spanner
      && stretch_of g out.Clustering_spanner.spanner < Float.infinity)

let suite = suite @ [ clustering_sparse_separation2 ]

(* ---------- Bs_derand: the (3.2) evaluator against the entry walk ------- *)

(* Test oracle: the unweighted (3.2) evaluator as an O(deg v) walk over
   every affected vertex's adjacency entries, re-run for both values of
   each X_j, with the constants of [Bs_derand.simulate].  The library
   evaluates (3.2) incrementally in closed form; both must fix the same
   sampling vector, hence the same spanner, bit for bit. *)
let walk_sampling ~state ~adj ~q ~kappa ~n5 ~xi ~tau =
  let nc = Bs_core.n_clusters state in
  let cluster_of = Bs_core.cluster_of state in
  let qeff = Array.make nc q in
  let affected = Array.make nc [] in
  Array.iteri
    (fun v a ->
      if Bs_core.vertex_alive state v then begin
        affected.(cluster_of.(v)) <- v :: affected.(cluster_of.(v));
        Array.iter
          (fun (_, _, c) ->
            if c <> cluster_of.(v) then affected.(c) <- v :: affected.(c))
          a
      end)
    adj;
  let contrib v =
    let a = adj.(v) and c_own = cluster_of.(v) in
    let d = Array.length a in
    let q_own = qeff.(c_own) in
    if q_own >= 1.0 then 0.0
    else begin
      let pnone =
        Array.fold_left
          (fun acc (_, _, c) ->
            acc *. (1.0 -. if c = c_own then 0.0 else qeff.(c)))
          1.0 a
      in
      let b = if d >= tau then pnone *. float_of_int d else 0.0 in
      let h = if d >= xi then n5 *. pnone else 0.0 in
      (1.0 -. q_own) *. (b +. h)
    end
  in
  let eval j =
    List.fold_left
      (fun acc v -> acc +. contrib v)
      0.0
      (List.sort_uniq compare affected.(j))
  in
  for j = 0 to nc - 1 do
    qeff.(j) <- 1.0;
    let e1 = kappa +. eval j in
    qeff.(j) <- 0.0;
    let e0 = eval j in
    qeff.(j) <- (if e1 < e0 then 1.0 else 0.0)
  done;
  Array.map (fun x -> x >= 1.0) qeff

(* The adjacency rows as per-vertex (w, eid, cluster) arrays. *)
let tuple_rows (adj : Bs_core.adjacency) n =
  Array.init n (fun v ->
      let lo = adj.Bs_core.off.(v) in
      Array.init
        (adj.Bs_core.off.(v + 1) - lo)
        (fun i ->
          (adj.Bs_core.w.(lo + i), adj.Bs_core.eid.(lo + i),
           adj.Bs_core.cluster.(lo + i))))

let walk_derand_mask ~k g =
  let lng x = Float.max 1.0 (log (float_of_int x)) in
  let state = Bs_core.create g in
  if k > 1 then begin
    let iters = k - 1 in
    let p = float_of_int (max 2 (Graph.n g)) ** (-1.0 /. float_of_int k) in
    let n0f = float_of_int (max 2 (Bs_core.n_clusters state)) in
    let n5 = n0f ** 5.0 in
    let xi = int_of_float (ceil (40.0 *. log n0f /. p)) in
    let tau = int_of_float (ceil (4.0 *. lng iters /. p)) in
    for i = 1 to iters do
      let adj = Bs_core.adjacency state in
      let kappa =
        8.0 *. lng iters /. (float_of_int iters *. (p ** float_of_int (i + 1)))
      in
      let sampled =
        walk_sampling ~state ~adj:(tuple_rows adj (Graph.n g)) ~q:(p /. 4.0)
          ~kappa ~n5 ~xi ~tau
      in
      ignore (Bs_core.iteration ~adjacency:adj state ~sampled)
    done
  end;
  ignore (Bs_core.finish state);
  Bs_core.spanner_mask state

let derand_closed_form_matches_walk =
  qcheck ~count:25 "Bs_derand unweighted closed form == entry walk" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let n = 8 + Rng.int rng 150 in
      let avg_degree = 2.0 +. Rng.float rng 40.0 in
      let g = Generators.connected_gnp ~rng ~n ~avg_degree in
      let k = 2 + (seed mod 4) in
      (Bs_derand.run ~k g).Bs_derand.spanner.Spanner.keep
      = walk_derand_mask ~k g)

(* Output pin: one MD5 over the keep masks and [Rounds.total] of the
   derandomized builds — Bs_derand on dense unit-weight and weighted
   G(n,p), under the network-decomposition ordering, and through
   Linear_size inside Ultra_sparse and Spanner_packing.  The literal was
   computed with the entry-walk evaluator, so any change to a choice of
   the conditional-expectation method shows up here. *)
let derand_output_pin () =
  let buf = Buffer.create 4096 in
  let add (keep : bool array) rounds =
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) keep;
    Buffer.add_string buf (Printf.sprintf ";%d\n" (Rounds.total rounds))
  in
  let gnp seed n avg_degree =
    Generators.connected_gnp ~rng:(Rng.create seed) ~n ~avg_degree
  in
  let derand ?ordering k g =
    let sp = (Bs_derand.run ?ordering ~k g).Bs_derand.spanner in
    add sp.Spanner.keep sp.Spanner.rounds
  in
  let g = gnp 11 256 32.0 in
  List.iter (fun k -> derand k g) [ 2; 3; 5 ];
  derand 3
    (Generators.weighted_connected_gnp ~rng:(Rng.create 12) ~n:300
       ~avg_degree:12.0 ~max_w:50);
  derand ~ordering:Bs_derand.Network_decomposition 3 (gnp 13 150 8.0);
  let bounded seed n =
    Generators.Streamed.graph
      (Generators.Streamed.degree_bounded ~seed ~n ~degree:8)
  in
  let us = (Ultra_sparse.run ~t:4 (bounded 14 400)).Ultra_sparse.spanner in
  add us.Spanner.keep us.Spanner.rounds;
  let c =
    (Spanner_packing.run ~k:2 ~epsilon:0.25 (bounded 15 300))
      .Spanner_packing.certificate
  in
  add c.Certificate.keep c.Certificate.rounds;
  Alcotest.(check string)
    "digest" "96e8034b5e19116ad8795f3c4b22c37b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Output pin for the Thm 1.6 / Thm G.1 construction path: one MD5 over
   the keep masks, [attempts], [t_inner], [partition_clusters] and
   [Rounds.total] of Ultra_sparse (t = 1, 2, 4, 8 on a unit-weight
   degree-bounded graph, a weighted G(n,p) and a weighted G(n,p) with
   weights in 1..3, so weight ties are common), of the retrying second
   packing layer at t = 8, of Linear_size on the same inputs and of
   Spanner_packing for k = 2, 3.  The literal was recorded on the
   hash-table contraction and the tuple-keyed stretch-friendly partition,
   so the array kernels must reproduce every choice they made. *)
let construction_output_pin () =
  let buf = Buffer.create 16384 in
  let add_keep (keep : bool array) =
    Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) keep
  in
  let add_ints xs =
    List.iter (fun x -> Buffer.add_string buf (Printf.sprintf ";%d" x)) xs;
    Buffer.add_char buf '\n'
  in
  let ultra ~t g =
    let o = Ultra_sparse.run ~t g in
    let sp = o.Ultra_sparse.spanner in
    add_keep sp.Spanner.keep;
    add_ints
      [
        o.Ultra_sparse.attempts;
        o.Ultra_sparse.t_inner;
        o.Ultra_sparse.partition_clusters;
        Rounds.total sp.Spanner.rounds;
      ];
    o
  in
  let bounded seed =
    Generators.Streamed.graph
      (Generators.Streamed.degree_bounded ~seed ~n:400 ~degree:8)
  in
  let weighted seed max_w =
    Generators.weighted_connected_gnp ~rng:(Rng.create seed) ~n:300
      ~avg_degree:8.0 ~max_w
  in
  let inputs = [ bounded 21; weighted 22 20; weighted 23 3 ] in
  List.iter
    (fun g -> List.iter (fun t -> ignore (ultra ~t g)) [ 1; 2; 4; 8 ])
    inputs;
  let g = bounded 24 in
  let first = ultra ~t:8 g in
  let rest = Array.map not first.Ultra_sparse.spanner.Spanner.keep in
  let second = ultra ~t:8 (Graph.sub_by_eids g rest) in
  if second.Ultra_sparse.attempts < 2 then
    Alcotest.fail "second layer no longer retries";
  List.iter
    (fun g ->
      let sp = (Linear_size.run g).Linear_size.spanner in
      add_keep sp.Spanner.keep;
      add_ints [ Rounds.total sp.Spanner.rounds ])
    inputs;
  List.iter
    (fun g ->
      List.iter
        (fun (k, epsilon) ->
          let o = Spanner_packing.run ~k ~epsilon g in
          let c = o.Spanner_packing.certificate in
          add_keep c.Certificate.keep;
          add_ints
            (Rounds.total c.Certificate.rounds :: o.Spanner_packing.layers))
        [ (2, 0.25); (3, 0.25); (2, 0.125); (3, 0.5) ])
    (g :: inputs);
  Alcotest.(check string)
    "digest" "741914e3a649780c3f1c27de8fff022e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The stretch-friendly minimum boundary edge against the boxed-tuple
   rule it replaced: the smallest (w, id) pair by polymorphic compare.
   Weights in 1..3 half of the time make ties the common case. *)
let sf_min_edge_matches_tuple_rule =
  qcheck ~count:200 "sf min boundary edge == (w, id) tuple min" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let max_w = if seed mod 2 = 0 then 3 else 100 in
      let g = graph_of_seed ~n_max:80 ~max_w seed in
      let nc = 1 + Rng.int rng (Graph.n g) in
      let cluster_of = Array.init (Graph.n g) (fun _ -> Rng.int rng nc) in
      let best = Array.make nc (max_int, max_int) in
      Graph.iter_edges g (fun e ->
          let cu = cluster_of.(e.Graph.u) and cv = cluster_of.(e.Graph.v) in
          if cu <> cv then begin
            let key = (e.Graph.w, e.Graph.id) in
            if key < best.(cu) then best.(cu) <- key;
            if key < best.(cv) then best.(cv) <- key
          end);
      Stretch_friendly.min_boundary_edges g cluster_of nc
      = Array.map (fun (_, id) -> if id = max_int then -1 else id) best)

(* Tight instance: the greedy (2k-1)-spanner of a seeded G(n,p) has girth
   above 2k.  Then a vertex meets a cluster of radius < k through at most
   one edge, and no edge joins two vertices of one cluster except its
   tree edge, so a Baswana–Sen spanner with parameter k can drop nothing,
   with unit weights or with weights.  [spanners ~seed ~k g] runs one
   implementation, once or with several seeds. *)
let keeps_girth_tight_graphs name spanners =
  qcheck ~count:10 (name ^ " keeps every edge when girth > 2k") seed_gen
    (fun seed ->
      List.for_all
        (fun (k, g0) ->
          let g = Graph.sub_by_eids g0 (Greedy.run ~k g0).Spanner.keep in
          Greedy.girth_exceeds g (Array.make (Graph.m g) true) (2 * k)
          && List.for_all
               (fun (sp : Spanner.t) -> Array.for_all Fun.id sp.Spanner.keep)
               (spanners ~seed ~k g))
        [
          (2, unit_graph_of_seed ~n_max:80 seed);
          (3, unit_graph_of_seed ~n_max:80 seed);
          (2, graph_of_seed ~n_max:80 seed);
          (3, graph_of_seed ~n_max:80 seed);
        ])

let derand_keeps_girth_tight_graphs =
  keeps_girth_tight_graphs "Bs_derand" (fun ~seed:_ ~k g ->
      [ (Bs_derand.run ~k g).Bs_derand.spanner ])

let bs_keeps_girth_tight_graphs =
  keeps_girth_tight_graphs "Baswana_sen" (fun ~seed ~k g ->
      List.map
        (fun s ->
          (Baswana_sen.run ~rng:(Rng.create ((4 * seed) + s)) ~k g)
            .Baswana_sen.spanner)
        [ 0; 1; 2; 3 ])

let bsd_keeps_girth_tight_graphs =
  keeps_girth_tight_graphs "Bs_distributed" (fun ~seed ~k g ->
      [ (Bs_distributed.run ~seed ~k g).Bs_distributed.spanner ])

(* Deterministic work gate, independent of core count and timing:
   minor-heap words of one Bs_derand.run ~k:3 on a dense seeded G(n,p)
   (n = 256, average degree 64).  The entry-walk evaluator allocated
   ~6.2 M words here (boxed float refs, closures, two sorts per cluster);
   the incremental one with the monomorphic adjacency sort ~0.22 M, and
   with the adjacency rows in flat scratch arrays ~32k.  The ceiling sits
   well below the walk, so a return to per-entry allocation trips it. *)
let derand_minor_words_ceiling = 1.5e6

let derand_work_gate () =
  let g =
    Generators.connected_gnp ~rng:(Rng.create 7) ~n:256 ~avg_degree:64.0
  in
  let _, w = alloc_words (fun () -> Bs_derand.run ~k:3 g) in
  check_words "Bs_derand.run minor" ~ceiling:derand_minor_words_ceiling
    w.minor

(* Allocation gate for Ultra_sparse's retry, independent of core count and
   timing: the retrying second packing layer of the construction pin
   (Ultra_sparse.run ~t:8 on degree-bounded n = 400, seed 24, minus its
   first layer; two attempts).  Rebuilding the partition from singletons
   on the retry allocated 36.2k minor and 13.5k major words; advancing the
   kept partition by one more iteration allocates 26.7k minor and 12.3k
   major words.  The minor ceiling sits between the two, so a return to
   restarting the partition trips it; the major words moved by less than
   10% and are not gated.  The warm-up call grows the per-domain
   scratch. *)
let ultra_retry_alloc_gate () =
  let g =
    Generators.Streamed.graph
      (Generators.Streamed.degree_bounded ~seed:24 ~n:400 ~degree:8)
  in
  let first = Ultra_sparse.run ~t:8 g in
  let rest =
    Graph.sub_by_eids g (Array.map not first.Ultra_sparse.spanner.Spanner.keep)
  in
  let run () = Ultra_sparse.run ~t:8 rest in
  ignore (run ());
  Gc.minor ();
  let o, w = alloc_words run in
  Alcotest.(check bool) "retries" true (o.Ultra_sparse.attempts >= 2);
  check_words "Ultra_sparse.run retry, minor" ~ceiling:31_000. w.minor

let suite =
  suite
  @ [
      derand_closed_form_matches_walk;
      case "Bs_derand outputs match the pinned digest" derand_output_pin;
      case "ultra-sparse/packing outputs pinned" construction_output_pin;
      sf_min_edge_matches_tuple_rule;
      derand_keeps_girth_tight_graphs;
      bs_keeps_girth_tight_graphs;
      bsd_keeps_girth_tight_graphs;
      case "Bs_derand minor words under the work ceiling" derand_work_gate;
      case "Ultra_sparse retry: minor words under the ceiling"
        ultra_retry_alloc_gate;
      case "sf: iterations = ceil log2 t" sf_iterations;
      sf_resume_matches_fresh;
    ]
