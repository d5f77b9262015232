open Ultraspan
open Helpers

(* Cross-cutting properties that did not fit the per-module suites. *)

(* ---------- simulator determinism ---------- *)

let network_runs_deterministic =
  qcheck ~count:10 "simulator runs are deterministic" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let r1, s1 = Programs.bfs g ~root:0 in
      let r2, s2 = Programs.bfs g ~root:0 in
      r1.Programs.dist = r2.Programs.dist
      && r1.Programs.parent = r2.Programs.parent
      && s1 = s2)

let matching_deterministic =
  qcheck ~count:10 "matching protocol deterministic" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let m1, _ = Programs.maximal_matching g in
      let m2, _ = Programs.maximal_matching g in
      m1 = m2)

(* ---------- ultra-sparse internals ---------- *)

let ultra_quotient_budget =
  qcheck ~count:10 "ultra-sparse quotient edges within n/t" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let rng = Rng.create seed in
      let t = 1 + Rng.int rng 6 in
      let out = Ultra_sparse.run ~t g in
      out.Ultra_sparse.quotient_edges_kept <= Graph.n g / t
      (* the doubling loop terminates quickly in practice *)
      && out.Ultra_sparse.attempts <= 12)

let ultra_partition_consistency =
  qcheck ~count:10 "ultra-sparse t_inner >= t and doubling" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:120 seed in
      let out = Ultra_sparse.run ~t:3 g in
      out.Ultra_sparse.t_inner >= 3
      && out.Ultra_sparse.t_inner = 3 * (1 lsl (out.Ultra_sparse.attempts - 1)))

(* ---------- weighted reduction internals ---------- *)

let weighted_reduction_classes_cover =
  qcheck ~count:10 "weight classes partition the edges" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 ~max_w:500 seed in
      (* an "unweighted algorithm" that keeps everything: the reduction
         must then return the whole graph *)
      let keep_all h = Spanner.of_eids h (List.init (Graph.m h) Fun.id) in
      let out = Weighted_reduction.run ~unweighted:keep_all ~epsilon:0.3 g in
      Spanner.size out.Weighted_reduction.spanner = Graph.m g)

let weighted_reduction_stretch_scales =
  qcheck ~count:8 "reduction stretch <= (1+eps)(2k-1)" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 ~max_w:300 seed in
      let k = 2 in
      let eps = 1.0 in
      let unweighted h = (Bs_derand.run ~k h).Bs_derand.spanner in
      let out = Weighted_reduction.run ~unweighted ~epsilon:eps g in
      Stretch.max_edge_stretch g out.Weighted_reduction.spanner.Spanner.keep
      <= ((1.0 +. eps) *. float_of_int ((2 * k) - 1)) +. 1e-9)

(* ---------- graph accessor consistency ---------- *)

let neighbors_match_iter_adj =
  qcheck "neighbors = iter_adj collection" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 seed in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        let via_iter = Graph.fold_adj g v (fun acc u eid -> (u, eid) :: acc) [] in
        if List.sort compare (Graph.neighbors g v) <> List.sort compare via_iter
        then ok := false
      done;
      !ok)

let find_edge_consistent =
  qcheck "find_edge agrees with the edge list" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let ok = ref true in
      Graph.iter_edges g (fun e ->
          match Graph.find_edge g e.Graph.u e.Graph.v with
          | Some eid when eid = e.Graph.id -> ()
          | _ -> ok := false);
      (* and a few non-edges *)
      let rng = Rng.create seed in
      for _ = 1 to 20 do
        let a = Rng.int rng (Graph.n g) and b = Rng.int rng (Graph.n g) in
        match Graph.find_edge g a b with
        | Some eid ->
            let u, v = Graph.endpoints g eid in
            if (min a b, max a b) <> (u, v) then ok := false
        | None -> if a <> b && Graph.mem_edge g a b then ok := false
      done;
      !ok)

(* ---------- linear-size phase bookkeeping ---------- *)

let linear_phases_shrink =
  qcheck ~count:10 "linear-size phases shrink the cluster graph" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:200 seed in
      let out = Linear_size.run g in
      let rec decreasing = function
        | a :: (b :: _ as rest) ->
            b.Linear_size.nodes < a.Linear_size.nodes && decreasing rest
        | _ -> true
      in
      decreasing out.Linear_size.phases)

let linear_stretch_bound_composition =
  qcheck ~count:10 "stretch bound = prod (2g+1)" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:150 seed in
      let out = Linear_size.run g in
      let expected =
        List.fold_left
          (fun acc ph -> acc *. float_of_int ((2 * ph.Linear_size.g_iters) + 1))
          1.0 out.Linear_size.phases
      in
      abs_float (out.Linear_size.stretch_bound -. expected) < 1e-6)

(* ---------- spanner round accounts ---------- *)

let rounds_nonzero_for_real_algorithms =
  qcheck ~count:8 "round accounts are populated" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:100 seed in
      let checks =
        [
          Spanner.total_rounds (Bs_derand.run ~k:3 g).Bs_derand.spanner;
          Spanner.total_rounds (Linear_size.run g).Linear_size.spanner;
          Spanner.total_rounds (Ultra_sparse.run ~t:2 g).Ultra_sparse.spanner;
        ]
      in
      List.for_all (fun r -> r > 0) checks)

let suite =
  [
    network_runs_deterministic;
    matching_deterministic;
    ultra_quotient_budget;
    ultra_partition_consistency;
    weighted_reduction_classes_cover;
    weighted_reduction_stretch_scales;
    neighbors_match_iter_adj;
    find_edge_consistent;
    linear_phases_shrink;
    linear_stretch_bound_composition;
    rounds_nonzero_for_real_algorithms;
  ]

(* ---------- additional coverage ---------- *)

let file_roundtrip () =
  let g = graph_of_seed ~n_max:30 4 in
  let path = Filename.temp_file "ultraspan" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save path g;
      let g' = Graph_io.load path in
      Alcotest.(check bool) "roundtrip" true
        (Array.for_all2 (fun a b -> a = b) (Graph.edges g) (Graph.edges g')));
  let dpath = Filename.temp_file "ultraspan" ".dimacs" in
  Fun.protect
    ~finally:(fun () -> Sys.remove dpath)
    (fun () ->
      Graph_io.save_dimacs dpath g;
      let g' = Graph_io.load_dimacs dpath in
      Alcotest.(check bool) "dimacs file roundtrip" true
        (Array.for_all2 (fun a b -> a = b) (Graph.edges g) (Graph.edges g')))

let gnp_extremes () =
  let rng = Rng.create 1 in
  let empty = Generators.gnp ~rng ~n:20 ~p:0.0 in
  Alcotest.(check int) "p=0" 0 (Graph.m empty);
  let full = Generators.gnp ~rng ~n:20 ~p:1.0 in
  Alcotest.(check int) "p=1" 190 (Graph.m full)

let hash_family_mod_and_coeffs () =
  let h = Hash_family.of_coeffs [| -5; 3 |] in
  (* negative coefficients are normalized into the field *)
  Alcotest.(check bool) "normalized" true
    (Array.for_all (fun c -> c >= 0 && c < Hash_family.prime)
       (Hash_family.coeffs h));
  Alcotest.(check int) "degree" 1 (Hash_family.degree h);
  for i = 0 to 20 do
    let v = Hash_family.eval_mod h i 7 in
    Alcotest.(check bool) "mod range" true (v >= 0 && v < 7)
  done

let stats_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p50 interpolated" 15.0 (Stats.percentile xs 0.5)

let network_word_limit_boundary () =
  let g = Generators.path 2 in
  let program =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me st mb ->
          if round = 0 && me = 0 then send_to g mb me 1 (Array.make 4 0);
          { Network.state = st; halt = true });
    }
  in
  let _, stats = Network.run ~word_limit:4 g program in
  Alcotest.(check int) "exactly 4 words allowed" 4 stats.Network.max_words

let apsp_restricted =
  qcheck ~count:8 "by_dijkstra respects the edge mask" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let keep = Array.make (Graph.m g) false in
      List.iter (fun e -> keep.(e) <- true) (Spanning_tree.kruskal_mst g);
      let d = Apsp.by_dijkstra ~keep g in
      (* tree distances dominate graph distances *)
      let dg = Apsp.by_dijkstra g in
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        for v = 0 to Graph.n g - 1 do
          if d.(u).(v) < dg.(u).(v) then ok := false
        done
      done;
      !ok)

let stoer_wagner_cut_consistent =
  qcheck ~count:10 "stoer-wagner side matches its weight" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:30 seed in
      let w, side = Mincut.stoer_wagner_cut g in
      let crossing = ref 0 in
      Graph.iter_edges g (fun e ->
          if side.(e.Graph.u) <> side.(e.Graph.v) then
            crossing := !crossing + e.Graph.w);
      !crossing = w)

let bs_distributed_disconnected () =
  let g =
    Graph.of_edges ~n:8
      [ (0, 1, 3); (1, 2, 1); (2, 0, 2); (3, 4, 5); (4, 5, 1); (6, 7, 2) ]
  in
  let out = Bs_distributed.run ~seed:3 ~k:2 g in
  Alcotest.(check bool) "spans all components" true
    (Spanner.is_spanning g out.Bs_distributed.spanner)

let partition_members_sizes_agree =
  qcheck ~count:10 "partition members and sizes agree" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let p, _ = Stretch_friendly.partition ~t:4 g in
      let members = Partition.members p in
      let sizes = Partition.sizes p in
      Array.for_all2 (fun ms s -> List.length ms = s) members sizes)

let pqueue_interleaved =
  qcheck "pqueue interleaved push/pop matches sorted order"
    QCheck2.Gen.(list_size (int_bound 60) (int_bound 100))
    (fun xs ->
      (* push two at a time, pop one: final drain must still be sorted *)
      let pq = Pqueue.create ~cmp:compare () in
      let popped = ref [] in
      List.iteri
        (fun i x ->
          Pqueue.push pq x x;
          if i mod 2 = 1 then
            match Pqueue.pop pq with
            | Some (p, _) -> popped := p :: !popped
            | None -> ())
        xs;
      let rec drain acc =
        match Pqueue.pop pq with
        | None -> acc
        | Some (p, _) -> drain (p :: acc)
      in
      let final = drain [] in
      (* the final drain is sorted descending when accumulated head-first *)
      List.sort compare final = List.rev final
      && List.length !popped + List.length final = List.length xs)

let suite =
  suite
  @ [
      case "io: file roundtrips" file_roundtrip;
      case "gen: gnp extremes" gnp_extremes;
      case "hash_family: mod + coeffs" hash_family_mod_and_coeffs;
      case "stats: percentile interpolation" stats_percentile_interpolates;
      case "network: word limit boundary" network_word_limit_boundary;
      apsp_restricted;
      stoer_wagner_cut_consistent;
      case "congest bs: disconnected" bs_distributed_disconnected;
      partition_members_sizes_agree;
      pqueue_interleaved;
    ]

(* ---------- PRAM ledger ---------- *)

let pram_basics () =
  let p = Pram.create () in
  Pram.charge p ~work:10 ~depth:3;
  Pram.charge ~label:"x" p ~work:5 ~depth:2;
  Alcotest.(check int) "work" 15 (Pram.work p);
  Alcotest.(check int) "depth" 5 (Pram.depth p);
  Pram.charge_parallel p [ (7, 4); (9, 1) ];
  Alcotest.(check int) "parallel work adds" 31 (Pram.work p);
  Alcotest.(check int) "parallel depth maxes" 9 (Pram.depth p);
  let q = Pram.create () in
  Pram.charge q ~work:1 ~depth:1;
  Pram.merge_sequential p q;
  Alcotest.(check int) "merged" 32 (Pram.work p)

let pram_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Pram.charge: negative")
    (fun () -> Pram.charge (Pram.create ()) ~work:(-1) ~depth:0)

let clustering_pram_work_efficient =
  qcheck ~count:8 "Thm 1.7 ledger: work m·polylog, depth polylog" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:150 seed in
      let out = Clustering_spanner.sparse g in
      let lg =
        int_of_float (ceil (Float.log2 (float_of_int (Graph.n g + 2)))) + 1
      in
      Pram.work out.Clustering_spanner.pram
      <= 8 * (Graph.m g + Graph.n g) * lg
      && Pram.depth out.Clustering_spanner.pram <= 8 * lg * lg)

let suite =
  suite
  @ [
      case "pram: basics" pram_basics;
      case "pram: rejects negative" pram_rejects_negative;
      clustering_pram_work_efficient;
    ]

(* ---------- validators catch corruption ---------- *)

let validators_catch_corruption () =
  let g = graph_of_seed ~n_max:60 8 in
  let p, _ = Stretch_friendly.partition ~t:4 g in
  (* corrupt a parent pointer: point a non-root vertex at itself *)
  let bad = ref (-1) in
  Array.iteri (fun v par -> if par >= 0 && !bad = -1 then bad := v) p.Partition.parent;
  let v = !bad in
  let corrupted =
    {
      p with
      Partition.parent = Array.mapi (fun i x -> if i = v then v else x) p.Partition.parent;
    }
  in
  (match Partition.validate corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted parent not caught");
  (* corrupt cluster_of: claim a vertex for a different cluster *)
  let c2 =
    {
      p with
      Partition.cluster_of =
        Array.mapi
          (fun i c -> if i = v then (c + 1) mod Partition.count p else c)
          p.Partition.cluster_of;
    }
  in
  match Partition.validate c2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corrupted cluster_of not caught"

let nd_validator_catches_bad_color () =
  let g = Generators.grid 6 6 in
  let nd = Network_decomposition.decompose g in
  (* force two adjacent clusters into the same colour *)
  let e = Graph.edge g 0 in
  let cu = nd.Network_decomposition.cluster_of.(e.Graph.u) in
  let cv = nd.Network_decomposition.cluster_of.(e.Graph.v) in
  if cu <> cv then begin
    let colors = Array.copy nd.Network_decomposition.color_of_cluster in
    colors.(cu) <- colors.(cv);
    let bad = { nd with Network_decomposition.color_of_cluster = colors } in
    match Network_decomposition.validate g ~separation:2 bad with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "same-colour adjacency not caught"
  end

let sc_validator_catches_overlap () =
  let g = Generators.grid 6 6 in
  let c = Separated_clustering.make ~separation:3 g in
  if Array.length c.Separated_clustering.clusters >= 2 then begin
    (* claim a vertex of cluster 1 for cluster 0's member list too *)
    let c0 = c.Separated_clustering.clusters.(0) in
    let c1 = c.Separated_clustering.clusters.(1) in
    match c1.Separated_clustering.members with
    | stolen :: _ ->
        let clusters = Array.copy c.Separated_clustering.clusters in
        clusters.(0) <-
          { c0 with Separated_clustering.members = stolen :: c0.Separated_clustering.members };
        let bad = { c with Separated_clustering.clusters = clusters } in
        (match Separated_clustering.validate ~separation:3 g bad with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "overlap not caught")
    | [] -> ()
  end

let suite =
  suite
  @ [
      case "validators: partition corruption" validators_catch_corruption;
      case "validators: nd colouring" nd_validator_catches_bad_color;
      case "validators: clustering overlap" sc_validator_catches_overlap;
    ]
