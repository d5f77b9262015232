open Ultraspan
open Helpers

(* The deterministic domain pool (Parallel) and its consumers: every entry
   point must return bit-identical results at any job count, the early-exit
   stretch Dijkstra must agree with a full restricted Dijkstra, and the
   bench artifacts built from parallel kernels must not depend on jobs. *)

let jobs_gen = QCheck2.Gen.int_range 2 6

(* --- pool primitives --- *)

let test_parallel_for_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  (* Each slot is written by exactly one chunk, so no two domains race on
     an index; the final content proves exactly-once coverage. *)
  Parallel.parallel_for ~jobs:4 0 n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index ran once" true (Array.for_all (( = ) 1) hits)

let test_parallel_for_offset () =
  let seen = Array.make 20 false in
  Parallel.parallel_for ~jobs:3 7 20 (fun i -> seen.(i) <- true);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) (Printf.sprintf "index %d" i) (7 <= i && i < 20) s)
    seen

let test_map_array_order () =
  let a = Parallel.map_array ~jobs:5 257 (fun i -> i * i) in
  Alcotest.(check bool) "results in index order" true
    (Array.for_all (fun ok -> ok) (Array.mapi (fun i v -> v = i * i) a))

let test_map_list_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved"
    (List.map (fun x -> 3 * x) xs)
    (Parallel.map_list ~jobs:4 (fun x -> 3 * x) xs)

let test_empty_ranges () =
  Parallel.parallel_for ~jobs:4 5 5 (fun _ -> Alcotest.fail "ran on empty");
  Alcotest.(check int) "map_array 0" 0
    (Array.length (Parallel.map_array ~jobs:4 0 (fun i -> i)));
  Alcotest.(check int) "map_reduce empty = init" 42
    (Parallel.map_reduce ~jobs:4 ~n:0 ~map:(fun i -> i) ~init:42 ~reduce:( + ))

let test_exception_propagates () =
  (match Parallel.parallel_for ~jobs:3 0 500 (fun i -> if i = 321 then failwith "boom") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* the pool must stay usable after a failed section *)
  Alcotest.(check int) "pool alive after failure" 4950
    (Parallel.map_reduce ~jobs:3 ~n:100 ~map:(fun i -> i) ~init:0 ~reduce:( + ))

let test_nested_sections () =
  let expect =
    Array.init 8 (fun i ->
        let acc = ref 0.0 in
        for j = 0 to 49 do
          acc := !acc +. (float_of_int (i + j) *. 0.1)
        done;
        !acc)
  in
  let got =
    Parallel.map_array ~jobs:4 8 (fun i ->
        Parallel.map_reduce ~jobs:4 ~n:50
          ~map:(fun j -> float_of_int (i + j) *. 0.1)
          ~init:0.0 ~reduce:( +. ))
  in
  Alcotest.(check bool) "nested = sequential, bit-identical" true (expect = got)

(* map_reduce's parallel path must perform the sequential left fold's
   arithmetic exactly — float sums are the sensitive case. *)
let float_sum_law =
  qcheck ~count:50 "map_reduce float sum is jobs-invariant"
    QCheck2.Gen.(pair (list_size (int_range 0 300) (float_range (-1e6) 1e6)) jobs_gen)
    (fun (xs, jobs) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let seq =
        Parallel.map_reduce ~jobs:1 ~n ~map:(Array.get a) ~init:0.0
          ~reduce:( +. )
      in
      let par =
        Parallel.map_reduce ~jobs ~n ~map:(Array.get a) ~init:0.0
          ~reduce:( +. )
      in
      Int64.bits_of_float seq = Int64.bits_of_float par)

(* --- verification kernels: jobs differentials --- *)

let mask_of g seed =
  (Baswana_sen.run ~rng:(Rng.create seed) ~k:3 g).Baswana_sen.spanner
    .Spanner.keep

let stretch_jobs_law =
  qcheck ~count:15 "max/mean stretch identical at any job count"
    QCheck2.Gen.(pair seed_gen jobs_gen)
    (fun (seed, jobs) ->
      let g = graph_of_seed seed in
      let keep = mask_of g seed in
      Stretch.max_edge_stretch ~jobs:1 g keep
      = Stretch.max_edge_stretch ~jobs g keep
      && Stretch.mean_edge_stretch ~jobs:1 g keep
         = Stretch.mean_edge_stretch ~jobs g keep)

let sampled_stretch_jobs_law =
  qcheck ~count:15 "sampled stretch draws the same sample at any job count"
    QCheck2.Gen.(pair seed_gen jobs_gen)
    (fun (seed, jobs) ->
      let g = graph_of_seed seed in
      let keep = mask_of g seed in
      Stretch.sampled_edge_stretch ~jobs:1 ~rng:(Rng.create 99) ~samples:37 g
        keep
      = Stretch.sampled_edge_stretch ~jobs ~rng:(Rng.create 99) ~samples:37 g
          keep)

let apsp_jobs_law =
  qcheck ~count:10 "APSP / multi-source / diameter identical at any job count"
    QCheck2.Gen.(pair seed_gen jobs_gen)
    (fun (seed, jobs) ->
      let g = graph_of_seed ~n_max:60 seed in
      let sources = Array.init (min 5 (Graph.n g)) (fun i -> i) in
      Apsp.by_dijkstra ~jobs:1 g = Apsp.by_dijkstra ~jobs g
      && Apsp.multi_source ~jobs:1 g sources
         = Apsp.multi_source ~jobs g sources
      && Apsp.diameter ~jobs:1 g = Apsp.diameter ~jobs g)

(* --- early-exit stretch Dijkstra vs full restricted Dijkstra --- *)

(* Mirror of the pre-early-exit per-vertex check: one FULL restricted
   Dijkstra per vertex.  The early-exit search stops once the v < u
   neighbors are settled; settled distances are final, so the maxima must
   agree exactly. *)
let ref_max_edge_stretch g keep =
  let worst = ref 0.0 in
  for v = 0 to Graph.n g - 1 do
    let needs = ref false and kept = ref 0 in
    Graph.iter_adj g v (fun u eid ->
        if u > v then if keep.(eid) then incr kept else needs := true);
    let vw =
      if not !needs then if !kept = 0 then 0.0 else 1.0
      else begin
        let dist = Dijkstra.distances ~allow:(fun eid -> keep.(eid)) g v in
        let w0 = ref 0.0 in
        Graph.iter_adj g v (fun u eid ->
            if u > v then begin
              let w = Graph.weight g eid in
              let s =
                if dist.(u) = Dijkstra.infinity then Float.infinity
                else if w = 0 then if dist.(u) = 0 then 1.0 else Float.infinity
                else float_of_int dist.(u) /. float_of_int w
              in
              if s > !w0 then w0 := s
            end);
        !w0
      end
    in
    if vw > !worst then worst := vw
  done;
  if Graph.m g = 0 then 1.0 else !worst

let early_exit_law =
  qcheck ~count:25 "early-exit stretch = full-Dijkstra stretch"
    QCheck2.Gen.(pair seed_gen jobs_gen)
    (fun (seed, jobs) ->
      let g = graph_of_seed ~n_max:80 seed in
      let keep = mask_of g seed in
      Stretch.max_edge_stretch ~jobs g keep = ref_max_edge_stretch g keep)

let early_exit_sparse_mask_law =
  qcheck ~count:15 "early exit with adversarially sparse masks"
    QCheck2.Gen.(pair seed_gen (int_range 0 100))
    (fun (seed, pct) ->
      let g = graph_of_seed ~n_max:60 seed in
      (* keep each edge with pct% probability: exercises disconnected
         subgraphs, where unsettled targets must read as infinity *)
      let rng = Rng.create (seed + 7) in
      let keep = Array.init (Graph.m g) (fun _ -> Rng.int rng 100 < pct) in
      Stretch.max_edge_stretch ~jobs:4 g keep = ref_max_edge_stretch g keep)

(* --- artifacts built from parallel kernels are byte-identical --- *)

let table_at_jobs jobs =
  let module T = Exp_table in
  let g = graph_of_seed 7 in
  let keep = mask_of g 7 in
  let smax = Stretch.max_edge_stretch ~jobs g keep in
  let smean = Stretch.mean_edge_stretch ~jobs g keep in
  let diam = Apsp.diameter ~jobs g in
  T.make ~id:"par-diff" ~title:"parallel differential"
    ~params:[ ("n", T.Int (Graph.n g)) ]
    [
      T.section
        ~cols:[ T.col ~w:9 "smax"; T.col ~w:9 "smean"; T.col ~w:6 "diam" ]
        "s"
        [
          T.row
            [
              ("smax", T.Float smax);
              ("smean", T.Float smean);
              ("diam", T.Int diam);
            ];
        ];
    ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_artifact_bytes () =
  let module T = Exp_table in
  let dir1 = Filename.temp_dir "uspar" "j1" in
  let dir4 = Filename.temp_dir "uspar" "j4" in
  let p1 = T.save ~dir:dir1 (table_at_jobs 1) in
  let p4 = T.save ~dir:dir4 (table_at_jobs 4) in
  Alcotest.(check string) "artifact bytes identical at jobs 1 vs 4"
    (read_file p1) (read_file p4)

let suite =
  [
    Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
    Alcotest.test_case "parallel_for offset range" `Quick
      test_parallel_for_offset;
    Alcotest.test_case "map_array order" `Quick test_map_array_order;
    Alcotest.test_case "map_list order" `Quick test_map_list_order;
    Alcotest.test_case "empty ranges" `Quick test_empty_ranges;
    Alcotest.test_case "exception propagates, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "nested sections run sequentially" `Quick
      test_nested_sections;
    float_sum_law;
    stretch_jobs_law;
    sampled_stretch_jobs_law;
    apsp_jobs_law;
    early_exit_law;
    early_exit_sparse_mask_law;
    Alcotest.test_case "artifact bytes jobs-invariant" `Quick
      test_artifact_bytes;
  ]
