(* Perf baseline harness for the CONGEST simulator and the parallel
   verification kernels (EXPERIMENTS.md §P1).

   Bechamel microbenchmarks:
   - message-plane throughput (flood workload) under both engines, which is
     the Fast-vs-Ref speedup the baseline records;
   - whole-protocol rounds-per-second (BFS, distributed Baswana-Sen,
     spanning forest — the Thurimella substrate) at several n;
   - the domain pool: exact stretch verification and independent seeded
     spanner trials at jobs=1 vs jobs=N (stretch:seq/stretch:par,
     tables:seq/tables:par — identical outputs, wall-clock apart);
   - the self-healing engine: the same update stream applied by the
     incremental repair engine vs the rebuild-every-batch baseline
     (dynamic:repair/dynamic:rebuild), measured in updates per second;
   - the distance-oracle serving layer (schema v6): compiling a built
     spanner into the ultraspan-oracle/2 artifact (oracle:compile) and
     serving a hot-skewed batch of distance/membership queries from it at
     jobs=1 vs jobs=N (oracle:query:seq/oracle:query:par) — identical
     answers by construction, wall-clock (queries/sec) apart.

   Efficiency metrics (schema v4): dedicated instrumented runs through the
   unified metrics plane record how well the machinery is used, not just
   how fast it goes —
   - messages/arc/round and arena waste of the Fast engine's slot arena
     (both deterministic: pure functions of the flood workload);
   - pool utilization of the parallel stretch kernel (chunk_run seconds /
     job_capacity seconds — wall-clock, but a ratio of co-measured clocks,
     so it transfers across machines far better than ns/run).
   The run fails (exit 1) when pool utilization drops below the floor or
   arena waste rises above the ceiling (0.90); --min-pool-utilization
   overrides the floor, and --gate-efficiency FILE re-checks a recorded
   artifact against both without re-running (the instant negative
   control: --min-pool-utilization 1.5 must fail, utilization can never
   exceed 1).

   Sharded message plane (schema v5): the same flood workload on streamed
   degree-bounded graphs at n = 1e5 (and 1e6 in full mode), run by the
   Fast engine's sharded rounds at jobs=1 and at jobs=N
   (mp:seq:n=.../mp:sharded:n=...).  The two are byte-identical in every
   observable — the suites measure wall-clock only, and the full run
   re-proves the identity at n = 1e6 (states, stats and stripped metric
   exposition compared across the Ref engine, Fast -j 1 and Fast -j 4).

   Results are written as JSON (schema ultraspan-perf/6, default
   [BENCH_congest.json]) so later runs can diff against the recorded
   baseline.  Only that schema loads, and every section of it (message
   plane, sharded, parallel, oracle, efficiency, dynamic) is required.

   Usage:
     perf [--quick] [--jobs N] [-o FILE]   run the suite, write FILE
     perf --validate FILE            check FILE parses and each suite ran
     perf --gate-efficiency FILE [--min-pool-utilization X]
        gate a recorded artifact's efficiency
     perf --mp-smoke N              large-n determinism gate: flood + BFS
        on a streamed degree-bounded graph at n=N, the Ref engine vs the
        Fast engine at jobs 1 and 4; states, stats and stripped metrics
        must be byte-identical (exit 1 on any mismatch)
     perf [--quick] --against FILE
        rerun the suite and gate on the recorded baseline: the fast-vs-ref
        message-plane speedup must stay within 40% of the baseline (the
        ratio is machine-robust, unlike wall-clock).  Four more ratios
        must each clear an absolute floor and stay within 40% of the
        recorded ratio: stretch:par (1.8x), the jobs=N-vs-jobs=1
        message plane at n=1e5 (1.5x), the oracle batch queries/sec at
        jobs=N (1.5x) and dynamic repair-vs-rebuild (1.2x).  The first
        three are pool ratios: on machines with fewer than 4 cores they
        are skipped with a note, as a ratio needs cores to manifest. *)

open Ultraspan
module J = Exp_json

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

let mp_n = 2000
let mp_avg_degree = 8.0
let flood_rounds = 8

let mp_graph () =
  Generators.connected_gnp ~rng:(Rng.create 42) ~n:mp_n
    ~avg_degree:mp_avg_degree

(* Flood workload: every node sends one word to every neighbour, every
   round, for a fixed number of rounds.  The payload is built in the
   initial state, so per-round program cost is negligible and the engine's
   message plane dominates the measurement. *)
let make_flood_program rounds =
  {
    Network.init = (fun _ v -> [| v land 0xffff |]);
    round =
      (fun g ~round ~me payload mb ->
        if round >= rounds then { Network.state = payload; halt = true }
        else begin
          let { Graph.off; _ } = Graph.csr g in
          for a = off.(me) to off.(me + 1) - 1 do
            Network.send mb ~arc:a payload
          done;
          { Network.state = payload; halt = false }
        end);
  }

let flood_program = make_flood_program flood_rounds

(* Large-n message plane: streamed degree-bounded graphs put the sharded
   rounds where they matter — sizes at which the per-round arc
   sweep is memory-bound.  Fewer flood rounds than the small workload: one
   run already moves millions of words. *)
let sharded_seed = 91
let sharded_degree = 4
let big_flood_rounds = 4
let big_sizes ~quick = if quick then [ 100_000 ] else [ 100_000; 1_000_000 ]

(* the size whose jobs=1-vs-jobs=N ratio feeds the gated speedup *)
let gate_big_n = 100_000

let big_graph n =
  Generators.Streamed.graph
    (Generators.Streamed.degree_bounded ~seed:sharded_seed ~n
       ~degree:sharded_degree)

let protocol_sizes ~quick = if quick then [ 512; 2048 ] else [ 512; 2048; 8192 ]

let protocol_graph n =
  Generators.connected_gnp ~rng:(Rng.create 43) ~n ~avg_degree:8.0

let weighted_graph n =
  Generators.randomize_weights ~rng:(Rng.create 2) ~lo:1 ~hi:1000
    (protocol_graph n)

(* Parallel-kernel workload: exact stretch of a Baswana-Sen spanner (one
   early-exit Dijkstra per vertex, fanned over the pool) and a batch of
   independent seeded spanner trials (the A1 ablation's inner loop).  Both
   produce identical results at any job count — the suites measure the
   wall-clock difference only. *)
let par_jobs = ref 4
let par_n ~quick = if quick then 512 else 1024
let par_trials = 8

let par_workload ~quick =
  let g =
    Generators.weighted_connected_gnp ~rng:(Rng.create 5) ~n:(par_n ~quick)
      ~avg_degree:8.0 ~max_w:10000
  in
  let keep = (Baswana_sen.run ~rng:(Rng.create 3) ~k:3 g).Baswana_sen.spanner.Spanner.keep in
  (g, keep)

(* Self-healing workload: one seeded update stream on a unit-weight torus,
   applied from a shared initial engine state ([Repair.copy] per measured
   run) by the incremental engine and by the rebuild-every-batch baseline.
   Identical final states (D1 checks that); wall-clock apart. *)
(* Same torus in both modes: below side ~24 the per-batch staging cost
   (hash-table copies, sorting, graph rebuild) dominates both engines and
   the gated ratio loses its margin; at 32 the quiet-machine ratio is ~2x
   against the 1.2x floor. *)
let dyn_side ~quick:_ = 32
let dyn_batches = 4
let dyn_ops = 8

let dyn_workload ~quick =
  let side = dyn_side ~quick in
  let g = Generators.torus side side in
  let stream =
    Update_stream.generate ~rng:(Rng.create 83) ~batches:dyn_batches
      ~ops:dyn_ops ~insert_frac:0.5 ~max_w:1 g
  in
  let cfg = { (Repair.defaults ~k:3) with Repair.jobs = 1 } in
  let inc0 = Repair.create cfg g in
  let rb0 = Repair.create { cfg with Repair.mode = `Rebuild } g in
  (g, stream, inc0, rb0)

(* Oracle workload: one deterministic spanner compiled into the
   ultraspan-oracle/2 artifact, then a hot-skewed batch of
   distance/membership queries served from it.  The compile suite measures
   the artifact build; the query suites measure batch throughput at jobs=1
   vs jobs=N — byte-identical answers either way, so only queries/sec
   separates them. *)
let oracle_n ~quick = if quick then 512 else 1024
let oracle_k = 3
let oracle_query_count ~quick = if quick then 2048 else 4096

let oracle_workload ~quick =
  let g =
    Generators.connected_gnp ~rng:(Rng.create 19) ~n:(oracle_n ~quick)
      ~avg_degree:16.0
  in
  let sp = (Bs_derand.run ~k:oracle_k g).Bs_derand.spanner in
  let o = Oracle.compile g ~k:oracle_k sp in
  let qs =
    Query_engine.generate ~rng:(Rng.create 21) ~n:(oracle_n ~quick)
      ~count:(oracle_query_count ~quick)
  in
  (g, sp, o, qs)

(* ------------------------------------------------------------------ *)
(* measurement                                                         *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  kind : string;
  n : int;
  runs : int;
  ns_per_run : float;
  messages_per_run : int;
  rounds_per_run : int;
}

let messages_per_sec r =
  float_of_int r.messages_per_run /. (r.ns_per_run *. 1e-9)

let rounds_per_sec r = float_of_int r.rounds_per_run /. (r.ns_per_run *. 1e-9)

(* One bechamel measurement: OLS estimate of ns/run plus the sample count,
   paired with the workload's per-run message/round counts (measured once,
   outside the clock; 0 for the non-simulator suites). ?quota widens the
   time budget past the quick default for suites whose single run is so
   slow that 0.25s would leave the OLS fit with one or two samples. *)
let measure ?quota ~quick ~name ~kind ~n ~messages ~rounds f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let elt = List.hd (Test.elements test) in
  let cfg =
    if quick then
      let quota = Option.value quota ~default:0.25 in
      Benchmark.cfg ~limit:100 ~quota:(Time.second quota) ~kde:None ()
    else Benchmark.cfg ~limit:300 ~quota:(Time.second 2.0) ~kde:None ()
  in
  let b = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
  let ns_per_run =
    let ols =
      Analyze.one
        (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock b
    in
    match Analyze.OLS.estimates ols with
    | Some (est :: _) -> est
    | _ -> Float.nan
  in
  {
    name;
    kind;
    n;
    runs = b.Benchmark.stats.Benchmark.samples;
    ns_per_run;
    messages_per_run = messages;
    rounds_per_run = rounds;
  }

let measure_stats ?quota ~quick ~name ~kind ~n ~stats f =
  let stats : Network.stats = stats in
  measure ?quota ~quick ~name ~kind ~n ~messages:stats.Network.messages
    ~rounds:stats.Network.rounds f

let message_plane_rows ~quick =
  let g = mp_graph () in
  let run engine () = ignore (Network.run ~engine g flood_program) in
  let stats engine = snd (Network.run ~engine g flood_program) in
  let fast =
    measure_stats ~quick ~name:"mp:fast" ~kind:"message-plane" ~n:mp_n
      ~stats:(stats `Fast) (run `Fast)
  in
  let ref_ =
    measure_stats ~quick ~name:"mp:ref" ~kind:"message-plane" ~n:mp_n
      ~stats:(stats `Ref) (run `Ref)
  in
  [ fast; ref_ ]

(* The Fast engine's sharded rounds at jobs=1 (the mp:seq rows) vs jobs=N
   (mp:sharded) on the large streamed graphs; results are byte-identical
   (the differential suite and --mp-smoke prove it), so only wall-clock
   separates the rows. *)
let sharded_rows ~quick =
  let prog = make_flood_program big_flood_rounds in
  List.concat_map
    (fun n ->
      let g = big_graph n in
      let run jobs () = ignore (Network.run ~engine:`Fast ~jobs g prog) in
      let stats jobs = snd (Network.run ~engine:`Fast ~jobs g prog) in
      let sized b = Printf.sprintf "mp:%s:n=%d" b n in
      [
        measure_stats ~quota:1.0 ~quick ~name:(sized "seq")
          ~kind:"message-plane" ~n ~stats:(stats 1) (run 1);
        measure_stats ~quota:1.0 ~quick ~name:(sized "sharded")
          ~kind:"message-plane" ~n ~stats:(stats !par_jobs) (run !par_jobs);
      ])
    (big_sizes ~quick)

let protocol_rows ~quick =
  List.concat_map
    (fun n ->
      let g = protocol_graph n in
      let gw = weighted_graph n in
      let sized name = Printf.sprintf "%s:n=%d" name n in
      [
        measure_stats ~quick ~name:(sized "bfs") ~kind:"protocol" ~n
          ~stats:(snd (Programs.bfs g ~root:0))
          (fun () -> ignore (Programs.bfs g ~root:0));
        measure_stats ~quick ~name:(sized "bs-distributed-k3") ~kind:"protocol"
          ~n
          ~stats:
            (Bs_distributed.run ~seed:7 ~k:3 gw).Bs_distributed.network_stats
          (fun () -> ignore (Bs_distributed.run ~seed:7 ~k:3 gw));
        measure_stats ~quick ~name:(sized "spanning-forest") ~kind:"protocol" ~n
          ~stats:(snd (Programs.spanning_forest g))
          (fun () -> ignore (Programs.spanning_forest g));
      ])
    (protocol_sizes ~quick)

let parallel_rows ~quick =
  let n = par_n ~quick in
  let g, keep = par_workload ~quick in
  let stretch jobs () = ignore (Stretch.max_edge_stretch ~jobs g keep) in
  let trials jobs () =
    ignore
      (Parallel.map_array ~jobs par_trials (fun i ->
           Spanner.size
             (Baswana_sen.run ~rng:(Rng.create (500 + i)) ~k:3 g)
               .Baswana_sen.spanner))
  in
  [
    measure ~quick ~name:"stretch:seq" ~kind:"parallel" ~n ~messages:0
      ~rounds:0 (stretch 1);
    measure ~quick ~name:"stretch:par" ~kind:"parallel" ~n ~messages:0
      ~rounds:0
      (stretch !par_jobs);
    measure ~quick ~name:"tables:seq" ~kind:"parallel" ~n ~messages:0
      ~rounds:0 (trials 1);
    measure ~quick ~name:"tables:par" ~kind:"parallel" ~n ~messages:0
      ~rounds:0
      (trials !par_jobs);
  ]

let oracle_rows ~quick =
  let g, sp, o, qs = oracle_workload ~quick in
  let n = oracle_n ~quick in
  let serve jobs () = ignore (Query_engine.run ~jobs o qs) in
  [
    measure ~quick ~name:"oracle:compile" ~kind:"oracle" ~n ~messages:0
      ~rounds:0 (fun () -> ignore (Oracle.compile g ~k:oracle_k sp));
    measure ~quick ~name:"oracle:query:seq" ~kind:"oracle" ~n ~messages:0
      ~rounds:0 (serve 1);
    measure ~quick ~name:"oracle:query:par" ~kind:"oracle" ~n ~messages:0
      ~rounds:0
      (serve !par_jobs);
  ]

let dynamic_rows ~quick =
  let g, stream, inc0, rb0 = dyn_workload ~quick in
  let n = Graph.n g in
  let run e0 () = ignore (Repair.apply_stream (Repair.copy e0) stream) in
  (* This pair feeds a hard-floored ratio gate, so it needs a more careful
     protocol than the throughput suites: one replay costs tens of ms, so
     the quick default quota would leave the OLS fit with one or two
     samples; scheduler/GC noise only ever inflates wall-clock samples; and
     a noise burst that lands on one suite but not the other skews the
     ratio.  So (a) widen the quota, (b) compact the heap before each
     measurement so both engines start from the same GC state, and
     (c) interleave three (repair, rebuild) measurement pairs and keep the
     per-suite minimum — the minimum is the robust estimator under
     additive noise, and interleaving exposes both suites to the same
     machine climate. *)
  let m name f =
    Gc.compact ();
    measure ~quota:1.5 ~quick ~name ~kind:"dynamic" ~n ~messages:0 ~rounds:0 f
  in
  let pairs =
    List.init 3 (fun _ ->
        (m "dynamic:repair" (run inc0), m "dynamic:rebuild" (run rb0)))
  in
  let best sel =
    List.fold_left
      (fun acc p ->
        let r = sel p in
        if r.ns_per_run < acc.ns_per_run then r else acc)
      (sel (List.hd pairs))
      (List.tl pairs)
  in
  [ best fst; best snd ]

(* ------------------------------------------------------------------ *)
(* efficiency metrics (the unified metrics plane, EXPERIMENTS.md §O2)  *)
(* ------------------------------------------------------------------ *)

(* Floors a healthy build clears with margin on any machine: utilization
   of the 4-job stretch kernel is ~0.2 even on one core (compute time ~
   wall-clock there) and rises with real cores; flood arena waste is
   1 - 1/word_limit = 0.75 exactly (one-word payloads in four-word
   slots), so 0.9 only fires if slots stop being reused or payloads
   shrink relative to their slots. *)
let default_min_pool_utilization = 0.10
let max_arena_waste = 0.90
let mp_word_limit = 4

type efficiency = {
  eff_deliveries : int;
  eff_arcs : int;
  eff_rounds : int;
  eff_msgs_per_arc_round : float;  (** deterministic *)
  eff_arena_slots : int;
  eff_arena_words : int;
  eff_arena_waste : float;  (** deterministic *)
  eff_pool_jobs : int;
  eff_chunk_run : float;  (** seconds, wall-clock *)
  eff_capacity : float;  (** seconds, wall-clock *)
  eff_pool_utilization : float;
}

let measure_efficiency ~quick =
  (* message plane: one instrumented flood run on the Fast engine *)
  let g = mp_graph () in
  let reg = Metrics.create () in
  ignore (Network.run ~word_limit:mp_word_limit ~metrics:reg ~engine:`Fast g
            flood_program);
  let s = Metrics.snapshot reg in
  let cnt name = Option.value ~default:0 (Metrics.find_counter s name) in
  let deliveries = cnt "congest.deliveries_total" in
  let rounds = cnt "congest.rounds_total" in
  let arcs = 2 * Graph.m g in
  let slots = cnt "timing.congest.arena_slots_touched" in
  let words = cnt "timing.congest.arena_words_written" in
  (* domain pool: one instrumented stretch verification, after an untimed
     warm-up so worker spawn cost stays outside the measurement *)
  let gp, keep = par_workload ~quick in
  ignore (Stretch.max_edge_stretch ~jobs:!par_jobs gp keep);
  let regp = Metrics.create () in
  Parallel.set_metrics (Some regp);
  Fun.protect
    ~finally:(fun () -> Parallel.set_metrics None)
    (fun () -> ignore (Stretch.max_edge_stretch ~jobs:!par_jobs gp keep));
  let sp = Metrics.snapshot regp in
  let tsec name =
    match Metrics.find_timer sp name with
    | Some d -> d.Metrics.tseconds
    | None -> 0.0
  in
  let chunk_run = tsec "timing.parallel.pool.chunk_run" in
  let capacity = tsec "timing.parallel.pool.job_capacity" in
  {
    eff_deliveries = deliveries;
    eff_arcs = arcs;
    eff_rounds = rounds;
    eff_msgs_per_arc_round =
      float_of_int deliveries
      /. (float_of_int arcs *. float_of_int (max 1 rounds));
    eff_arena_slots = slots;
    eff_arena_words = words;
    (* per-delivery slot waste: each delivery occupies a [word_limit]-word
       slot and writes its payload words into it ([slots_touched] counts
       distinct slots ever used, so it is not the per-delivery base) *)
    eff_arena_waste =
      (if deliveries = 0 then 1.0
       else
         1.0
         -. float_of_int words
            /. (float_of_int deliveries *. float_of_int mp_word_limit));
    eff_pool_jobs = !par_jobs;
    eff_chunk_run = chunk_run;
    eff_capacity = capacity;
    eff_pool_utilization =
      (if capacity > 0.0 then chunk_run /. capacity else 0.0);
  }

let print_efficiency e =
  Printf.printf
    "efficiency: %.4f msgs/arc/round (%d deliveries / %d arcs / %d rounds)\n"
    e.eff_msgs_per_arc_round e.eff_deliveries e.eff_arcs e.eff_rounds;
  Printf.printf
    "efficiency: arena waste %.2f (%d payload words over %d deliveries in \
     %d-word slots; %d distinct slots)\n"
    e.eff_arena_waste e.eff_arena_words e.eff_deliveries mp_word_limit
    e.eff_arena_slots;
  Printf.printf
    "efficiency: pool utilization %.2f at %d jobs (%.4fs run / %.4fs \
     capacity)\n"
    e.eff_pool_utilization e.eff_pool_jobs e.eff_chunk_run e.eff_capacity

(* The efficiency gate proper: shared by the measuring modes (on the
   fresh numbers) and --gate-efficiency (on recorded ones). *)
let gate_efficiency ~min_util ~utilization ~waste =
  let failures = ref 0 in
  Printf.printf "efficiency gate: pool utilization %.3f vs floor %.3f\n"
    utilization min_util;
  if not (Float.is_finite utilization) || utilization < min_util then begin
    incr failures;
    Printf.eprintf
      "EFFICIENCY REGRESSION pool utilization %.3f below floor %.3f\n"
      utilization min_util
  end;
  Printf.printf "efficiency gate: arena waste %.3f vs ceiling %.3f\n" waste
    max_arena_waste;
  if not (Float.is_finite waste) || waste > max_arena_waste then begin
    incr failures;
    Printf.eprintf
      "EFFICIENCY REGRESSION arena waste %.3f above ceiling %.3f\n" waste
      max_arena_waste
  end;
  !failures

let run_suite ~quick =
  Printf.printf "perf: message plane (n=%d, %d flood rounds, both engines)...\n%!"
    mp_n flood_rounds;
  let mp = message_plane_rows ~quick in
  Printf.printf
    "perf: sharded message plane at n in {%s} (degree %d, jobs=%d on %d \
     core(s))...\n%!"
    (String.concat ", " (List.map string_of_int (big_sizes ~quick)))
    sharded_degree !par_jobs
    (Parallel.available_cores ());
  let sharded = sharded_rows ~quick in
  Printf.printf "perf: protocols at n in {%s}...\n%!"
    (String.concat ", " (List.map string_of_int (protocol_sizes ~quick)));
  let proto = protocol_rows ~quick in
  Printf.printf
    "perf: parallel kernels (n=%d, jobs=%d on %d core(s))...\n%!"
    (par_n ~quick) !par_jobs
    (Parallel.available_cores ());
  let par = parallel_rows ~quick in
  Printf.printf
    "perf: oracle serving (n=%d, k=%d, %d queries, jobs=%d on %d core(s))...\n%!"
    (oracle_n ~quick) oracle_k
    (oracle_query_count ~quick)
    !par_jobs
    (Parallel.available_cores ());
  let orc = oracle_rows ~quick in
  Printf.printf
    "perf: dynamic repair vs rebuild (torus %dx%d, %d batches x %d ops)...\n%!"
    (dyn_side ~quick) (dyn_side ~quick) dyn_batches dyn_ops;
  mp @ sharded @ proto @ par @ orc @ dynamic_rows ~quick

let speedup_of rows =
  let fast = List.find (fun r -> r.name = "mp:fast") rows in
  let ref_ = List.find (fun r -> r.name = "mp:ref") rows in
  messages_per_sec fast /. messages_per_sec ref_

(* jobs=1-vs-jobs=N wall-clock ratio of the gated large-n pair (>1 = the
   pool wins); NaN when a row is missing. *)
let sharded_speedup_of rows =
  match
    ( List.find_opt
        (fun r -> r.name = Printf.sprintf "mp:seq:n=%d" gate_big_n)
        rows,
      List.find_opt
        (fun r -> r.name = Printf.sprintf "mp:sharded:n=%d" gate_big_n)
        rows )
  with
  | Some seq, Some sh when sh.ns_per_run > 0.0 ->
      seq.ns_per_run /. sh.ns_per_run
  | _ -> Float.nan

(* seq-vs-par wall-clock ratio of a parallel suite pair (>1 = the pool
   wins); NaN when a row is missing. *)
let par_speedup_of rows prefix =
  match
    ( List.find_opt (fun r -> r.name = prefix ^ ":seq") rows,
      List.find_opt (fun r -> r.name = prefix ^ ":par") rows )
  with
  | Some seq, Some par when par.ns_per_run > 0.0 ->
      seq.ns_per_run /. par.ns_per_run
  | _ -> Float.nan

(* rebuild-vs-repair wall-clock ratio of the dynamic pair (>1 = the
   incremental engine wins); NaN when a row is missing. *)
let dyn_speedup_of rows =
  match
    ( List.find_opt (fun r -> r.name = "dynamic:repair") rows,
      List.find_opt (fun r -> r.name = "dynamic:rebuild") rows )
  with
  | Some inc, Some rb when inc.ns_per_run > 0.0 ->
      rb.ns_per_run /. inc.ns_per_run
  | _ -> Float.nan

let print_rows rows =
  Printf.printf "%-26s %6s %8s %14s %14s %14s\n" "suite" "n" "runs" "ns/run"
    "msgs/s" "rounds/s";
  List.iter
    (fun r ->
      Printf.printf "%-26s %6d %8d %14.0f %14.0f %14.1f\n" r.name r.n r.runs
        r.ns_per_run (messages_per_sec r) (rounds_per_sec r))
    rows

(* ------------------------------------------------------------------ *)
(* JSON output (shared Exp_json encoder — schema ultraspan-perf/1)     *)
(* ------------------------------------------------------------------ *)

let schema = "ultraspan-perf/6"

(* A failed OLS estimate is NaN; encode it as 0.0 so the file stays valid
   JSON and --validate rejects it with a clear message. *)
let fin f = if Float.is_finite f then f else 0.0

let json_of_row r =
  J.Obj
    [
      ("name", J.Str r.name);
      ("kind", J.Str r.kind);
      ("n", J.Int r.n);
      ("runs", J.Int r.runs);
      ("ns_per_run", J.Float (fin r.ns_per_run));
      ("messages_per_run", J.Int r.messages_per_run);
      ("rounds_per_run", J.Int r.rounds_per_run);
      ("messages_per_sec", J.Float (fin (messages_per_sec r)));
      ("rounds_per_sec", J.Float (fin (rounds_per_sec r)));
    ]

let json_of_efficiency e =
  J.Obj
    [
      ("deliveries", J.Int e.eff_deliveries);
      ("arcs", J.Int e.eff_arcs);
      ("rounds", J.Int e.eff_rounds);
      ("messages_per_arc_round", J.Float (fin e.eff_msgs_per_arc_round));
      ("arena_slots_touched", J.Int e.eff_arena_slots);
      ("arena_words_written", J.Int e.eff_arena_words);
      ("word_limit", J.Int mp_word_limit);
      ("arena_waste", J.Float (fin e.eff_arena_waste));
      ("pool_jobs", J.Int e.eff_pool_jobs);
      ("pool_chunk_run_seconds", J.Float (fin e.eff_chunk_run));
      ("pool_job_capacity_seconds", J.Float (fin e.eff_capacity));
      ("pool_utilization", J.Float (fin e.eff_pool_utilization));
    ]

let json_of_run ~quick ~eff rows =
  let fast = List.find (fun r -> r.name = "mp:fast") rows in
  let ref_ = List.find (fun r -> r.name = "mp:ref") rows in
  J.Obj
    [
      ("schema", J.Str schema);
      ("quick", J.Bool quick);
      ( "workload",
        J.Obj
          [
            ("mp_n", J.Int mp_n);
            ("mp_avg_degree", J.Float mp_avg_degree);
            ("mp_flood_rounds", J.Int flood_rounds);
          ] );
      ("suites", J.Arr (List.map json_of_row rows));
      ( "message_plane",
        J.Obj
          [
            ("n", J.Int mp_n);
            ("fast_messages_per_sec", J.Float (fin (messages_per_sec fast)));
            ("ref_messages_per_sec", J.Float (fin (messages_per_sec ref_)));
            ("speedup", J.Float (fin (speedup_of rows)));
          ] );
      ( "sharded",
        let msgs name =
          match List.find_opt (fun r -> r.name = name) rows with
          | Some r -> messages_per_sec r
          | None -> 0.0
        in
        J.Obj
          [
            ("cores", J.Int (Parallel.available_cores ()));
            ("jobs", J.Int !par_jobs);
            ("n", J.Int gate_big_n);
            ("degree", J.Int sharded_degree);
            ("flood_rounds", J.Int big_flood_rounds);
            ( "seq_messages_per_sec",
              J.Float (fin (msgs (Printf.sprintf "mp:seq:n=%d" gate_big_n))) );
            ( "sharded_messages_per_sec",
              J.Float (fin (msgs (Printf.sprintf "mp:sharded:n=%d" gate_big_n)))
            );
            ("speedup", J.Float (fin (sharded_speedup_of rows)));
          ] );
      ( "parallel",
        J.Obj
          [
            ("cores", J.Int (Parallel.available_cores ()));
            ("jobs", J.Int !par_jobs);
            ("n", J.Int (par_n ~quick));
            ("trials", J.Int par_trials);
            ("stretch_speedup", J.Float (fin (par_speedup_of rows "stretch")));
            ("tables_speedup", J.Float (fin (par_speedup_of rows "tables")));
          ] );
      ( "oracle",
        let count = oracle_query_count ~quick in
        let qps name =
          match List.find_opt (fun r -> r.name = name) rows with
          | Some r when r.ns_per_run > 0.0 ->
              float_of_int count /. (r.ns_per_run *. 1e-9)
          | _ -> 0.0
        in
        J.Obj
          [
            ("cores", J.Int (Parallel.available_cores ()));
            ("jobs", J.Int !par_jobs);
            ("n", J.Int (oracle_n ~quick));
            ("k", J.Int oracle_k);
            ("queries", J.Int count);
            ("seq_queries_per_sec", J.Float (fin (qps "oracle:query:seq")));
            ("par_queries_per_sec", J.Float (fin (qps "oracle:query:par")));
            ("speedup", J.Float (fin (par_speedup_of rows "oracle:query")));
          ] );
      ("efficiency", json_of_efficiency eff);
      ( "dynamic",
        let updates = dyn_batches * dyn_ops in
        let ups name =
          match List.find_opt (fun r -> r.name = name) rows with
          | Some r when r.ns_per_run > 0.0 ->
              float_of_int updates /. (r.ns_per_run *. 1e-9)
          | _ -> 0.0
        in
        J.Obj
          [
            ("side", J.Int (dyn_side ~quick));
            ("batches", J.Int dyn_batches);
            ("ops_per_batch", J.Int dyn_ops);
            ("updates", J.Int updates);
            ("repair_updates_per_sec", J.Float (fin (ups "dynamic:repair")));
            ("rebuild_updates_per_sec", J.Float (fin (ups "dynamic:rebuild")));
            ("repair_speedup", J.Float (fin (dyn_speedup_of rows)));
          ] );
    ]

let write_json ~quick ~eff ~file rows =
  J.save file (json_of_run ~quick ~eff rows);
  speedup_of rows

(* ------------------------------------------------------------------ *)
(* validation and baseline gating                                      *)
(* ------------------------------------------------------------------ *)

let load_baseline file =
  let j = J.load file in
  let s = J.str (J.field "schema" j) in
  if s <> schema then
    raise
      (J.Error
         (Printf.sprintf "unknown schema %s (this build reads %s)" s schema));
  j

let validate file =
  let j = load_baseline file in
  let suites = J.arr (J.field "suites" j) in
  if suites = [] then raise (J.Error "no suites");
  List.iter
    (fun suite ->
      let name = J.str (J.field "name" suite) in
      let runs = J.int (J.field "runs" suite) in
      if runs <= 0 then raise (J.Error (name ^ ": 0 runs"));
      let ns = J.num (J.field "ns_per_run" suite) in
      if not (Float.is_finite ns && ns > 0.0) then
        raise (J.Error (name ^ ": bad ns_per_run")))
    suites;
  (* every section is required; each listed field must be positive *)
  let field sec name = J.field name (J.field sec j) in
  let positive (sec, name, num) =
    let x = num (field sec name) in
    if not (Float.is_finite x && x > 0.0) then
      raise (J.Error (Printf.sprintf "bad %s.%s" sec name))
  in
  let count x = float_of_int (J.int x) in
  List.iter positive
    [
      ("message_plane", "speedup", J.num);
      ("parallel", "cores", count);
      ("parallel", "stretch_speedup", J.num);
      ("sharded", "cores", count);
      ("sharded", "n", count);
      ("sharded", "speedup", J.num);
      ("oracle", "cores", count);
      ("oracle", "queries", count);
      ("oracle", "seq_queries_per_sec", J.num);
      ("oracle", "speedup", J.num);
      ("efficiency", "deliveries", count);
      ("dynamic", "updates", count);
      ("dynamic", "repair_speedup", J.num);
    ];
  let u = J.num (field "efficiency" "pool_utilization") in
  if not (Float.is_finite u && u > 0.0 && u <= 1.0) then
    raise (J.Error "bad efficiency.pool_utilization");
  let w = J.num (field "efficiency" "arena_waste") in
  if not (Float.is_finite w && w >= 0.0 && w <= 1.0) then
    raise (J.Error "bad efficiency.arena_waste");
  let speedup = J.num (field "message_plane" "speedup") in
  Printf.printf "%s: OK (%d suites, all ran; message-plane speedup %.2fx)\n"
    file (List.length suites) speedup

(* Re-check a recorded artifact's efficiency section against the floors
   without re-running anything — the negative-control entry point. *)
let gate_recorded ~min_util file =
  let e = J.field "efficiency" (load_baseline file) in
  gate_efficiency ~min_util
    ~utilization:(J.num (J.field "pool_utilization" e))
    ~waste:(J.num (J.field "arena_waste" e))

(* Gate a fresh run against a recorded baseline on ratios, led by the
   fast-vs-ref speedup: wall-clock shifts with the machine, but the two
   engines shift together, so the ratio is what a regression in the fast
   message plane actually moves.  Every ratio may fall at most [tolerance]
   below its baseline; per-suite ns/run is recorded but not gated, as
   absolute wall-clock does not transfer across machines. *)
let tolerance = 0.40

let against ~min_util ~eff ~baseline_file rows =
  let j = load_baseline baseline_file in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        Printf.eprintf "PERF REGRESSION %s\n" s)
      fmt
  in
  let base_speedup = J.num (J.field "speedup" (J.field "message_plane" j)) in
  let cur_speedup = speedup_of rows in
  let floor = base_speedup *. (1.0 -. tolerance) in
  Printf.printf
    "message-plane speedup: %.2fx now vs %.2fx baseline (floor %.2fx at \
     tolerance %.0f%%)\n"
    cur_speedup base_speedup floor (tolerance *. 100.0);
  if not (Float.is_finite cur_speedup) || cur_speedup < floor then
    fail "message-plane speedup %.2fx below floor %.2fx (baseline %.2fx)"
      cur_speedup floor base_speedup;
  (* Ratio gates: each fresh ratio must clear its absolute floor and stay
     within the tolerance of the baseline section's recorded ratio.  Pool
     ratios need cores to manifest, so they pass [~min_cores:4] and are
     skipped with a note on smaller machines. *)
  let cores = Parallel.available_cores () in
  let ratio_gate ?(min_cores = 1) ~label ~section ~field ~abs_floor cur =
    let p = J.field section j in
    if cores < min_cores then
      Printf.printf
        "%s gate: skipped (%d core(s) here, baseline recorded %d — the ratio \
         cannot manifest below %d cores)\n"
        label cores
        (J.int (J.field "cores" p))
        min_cores
    else begin
      let base = J.num (J.field field p) in
      let rel_floor = base *. (1.0 -. tolerance) in
      Printf.printf
        "%s speedup: %.2fx now vs %.2fx baseline (floors: %.2fx absolute, \
         %.2fx relative)\n"
        label cur base abs_floor rel_floor;
      if not (Float.is_finite cur) || cur < abs_floor then
        fail "%s speedup %.2fx below the %.2fx floor at %d cores" label cur
          abs_floor cores
      else if cur < rel_floor then
        fail "%s speedup %.2fx below relative floor %.2fx (baseline %.2fx)"
          label cur rel_floor base
    end
  in
  ratio_gate ~min_cores:4 ~label:"stretch:par" ~section:"parallel"
    ~field:"stretch_speedup" ~abs_floor:1.8
    (par_speedup_of rows "stretch");
  ratio_gate ~min_cores:4
    ~label:(Printf.sprintf "mp:sharded at n=%d" gate_big_n)
    ~section:"sharded" ~field:"speedup" ~abs_floor:1.5
    (sharded_speedup_of rows);
  ratio_gate ~min_cores:4 ~label:"oracle:query" ~section:"oracle"
    ~field:"speedup" ~abs_floor:1.5
    (par_speedup_of rows "oracle:query");
  ratio_gate ~label:"dynamic repair-vs-rebuild" ~section:"dynamic"
    ~field:"repair_speedup" ~abs_floor:1.2 (dyn_speedup_of rows);
  (* Efficiency gate: absolute floors on the fresh run's efficiency
     metrics — ratios of co-measured quantities, so no baseline scaling
     is needed (the recorded section documents what this machine saw). *)
  failures :=
    !failures
    + gate_efficiency ~min_util ~utilization:eff.eff_pool_utilization
        ~waste:eff.eff_arena_waste;
  !failures

(* ------------------------------------------------------------------ *)
(* --mp-smoke: the large-n determinism gate                            *)
(* ------------------------------------------------------------------ *)

(* Flood and BFS on a streamed degree-bounded graph at the given n, run
   on the Ref engine (the independent reference) and on the Fast engine at
   jobs 1 and 4.  States, stats and the stripped deterministic metric
   exposition must be byte-identical across all three — in-process, no
   files.  Returns the mismatch count (the caller exits 1 on any). *)
let mp_smoke n =
  Printf.printf
    "mp-smoke: n=%d streamed degree-%d graph — flood + BFS, ref vs fast -j 1 \
     vs fast -j 4...\n%!"
    n sharded_degree;
  let g = big_graph n in
  let flood = make_flood_program big_flood_rounds in
  let failures = ref 0 in
  let agree what tag (s1, st1, e1) (s2, st2, e2) =
    let miss part =
      incr failures;
      Printf.eprintf "MP-SMOKE MISMATCH %s %s: %s differs from ref\n" what
        part tag
    in
    if s1 <> s2 then miss "states";
    if st1 <> st2 then miss "stats";
    if not (String.equal e1 e2) then miss "metrics"
  in
  let family what obs =
    let base = obs ~engine:`Ref ~jobs:1 in
    agree what "fast -j 1" base (obs ~engine:`Fast ~jobs:1);
    agree what "fast -j 4" base (obs ~engine:`Fast ~jobs:4)
  in
  family "flood" (fun ~engine ~jobs ->
      let reg = Metrics.create () in
      let states, stats = Network.run ~metrics:reg ~engine ~jobs g flood in
      (states, stats, Metrics.exposition ~strip:true (Metrics.snapshot reg)));
  family "bfs" (fun ~engine ~jobs ->
      let reg = Metrics.create () in
      let res, stats = Programs.bfs ~metrics:reg ~engine ~jobs g ~root:0 in
      (res, stats, Metrics.exposition ~strip:true (Metrics.snapshot reg)));
  if !failures = 0 then
    Printf.printf
      "mp-smoke: OK (n=%d: flood and BFS byte-identical across engines and \
       job counts)\n"
      n;
  !failures

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--quick] [--jobs N | -j N] [-o FILE]\n\
    \       perf.exe --validate FILE\n\
    \       perf.exe --gate-efficiency FILE [--min-pool-utilization X]\n\
    \       perf.exe --mp-smoke N [--jobs N | -j N]\n\
    \       perf.exe [--quick] --against FILE"

let die fmtstr =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf.exe: " ^ s);
      usage ();
      exit 2)
    fmtstr

let () =
  let quick = ref false
  and out = ref None
  and validate_file = ref None
  and against_file = ref None
  and gate_eff_file = ref None
  and min_util = ref default_min_pool_utilization
  and mp_smoke_n = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: r -> quick := true; parse r
    | "-o" :: f :: r -> out := Some f; parse r
    | "--validate" :: f :: r -> validate_file := Some f; parse r
    | "--against" :: f :: r -> against_file := Some f; parse r
    | "--gate-efficiency" :: f :: r -> gate_eff_file := Some f; parse r
    | "--mp-smoke" :: v :: r ->
        (match int_of_string_opt v with
        | Some n when n >= 3 -> mp_smoke_n := Some n
        | _ -> die "--mp-smoke expects an integer n >= 3, got %S" v);
        parse r
    | "--min-pool-utilization" :: v :: r ->
        (match float_of_string_opt v with
        | Some x when x >= 0.0 -> min_util := x
        | _ -> die "--min-pool-utilization expects a non-negative float");
        parse r
    | ("--jobs" | "-j") :: v :: r ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> par_jobs := j
        | _ -> die "--jobs expects a positive integer, got %S" v);
        parse r
    | [ (("-o" | "--validate" | "--against" | "--gate-efficiency"
        | "--mp-smoke" | "--min-pool-utilization" | "--jobs" | "-j") as f) ]
      ->
        die "%s needs an argument" f
    | a :: _ -> die "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  if
    List.length
      (List.filter Fun.id
         [
           Option.is_some !validate_file; Option.is_some !against_file;
           Option.is_some !gate_eff_file; Option.is_some !mp_smoke_n;
         ])
    > 1
  then
    die
      "--validate, --against, --gate-efficiency and --mp-smoke are mutually \
       exclusive";
  (match !mp_smoke_n with
  | Some n ->
      let failures = mp_smoke n in
      if failures > 0 then begin
        Printf.eprintf "mp-smoke: %d mismatch(es) at n=%d\n" failures n;
        exit 1
      end;
      exit 0
  | None -> ());
  match (!validate_file, !against_file, !gate_eff_file) with
  | Some file, None, None -> (
      try validate file
      with J.Error msg | Sys_error msg ->
        Printf.eprintf "%s: INVALID (%s)\n" file msg;
        exit 1)
  | None, None, Some file ->
      let failures =
        try gate_recorded ~min_util:!min_util file
        with J.Error msg | Sys_error msg ->
          Printf.eprintf "%s: INVALID artifact (%s)\n" file msg;
          exit 1
      in
      if failures > 0 then begin
        Printf.eprintf "efficiency gate: %d failure(s) in %s\n" failures file;
        exit 1
      end;
      Printf.printf "efficiency gate: OK for %s\n" file
  | None, Some baseline_file, None ->
      let rows = run_suite ~quick:!quick in
      let eff = measure_efficiency ~quick:!quick in
      print_rows rows;
      print_efficiency eff;
      (match !out with
      | Some file -> ignore (write_json ~quick:!quick ~eff ~file rows)
      | None -> ());
      let failures =
        try
          against ~min_util:!min_util ~eff ~baseline_file rows
        with J.Error msg | Sys_error msg ->
          Printf.eprintf "%s: INVALID baseline (%s)\n" baseline_file msg;
          exit 1
      in
      if failures > 0 then begin
        Printf.eprintf "perf gate: %d regression(s) vs %s\n" failures
          baseline_file;
        exit 1
      end;
      Printf.printf "perf gate: OK vs %s\n" baseline_file
  | None, None, None ->
      let file = Option.value !out ~default:"BENCH_congest.json" in
      let rows = run_suite ~quick:!quick in
      let eff = measure_efficiency ~quick:!quick in
      let speedup = write_json ~quick:!quick ~eff ~file rows in
      print_rows rows;
      print_efficiency eff;
      (* full runs re-prove the ref/fast identity at the largest size
         before the artifact is trusted *)
      let smoke_failures =
        if !quick then 0
        else mp_smoke (List.fold_left max 0 (big_sizes ~quick:false))
      in
      let failures =
        smoke_failures
        + gate_efficiency ~min_util:!min_util
            ~utilization:eff.eff_pool_utilization ~waste:eff.eff_arena_waste
      in
      Printf.printf "message-plane speedup (fast vs ref): %.2fx\n" speedup;
      Printf.printf "jobs=N-vs-jobs=1 speedup at n=%d: %.2fx (%d core(s))\n"
        gate_big_n
        (sharded_speedup_of rows)
        (Parallel.available_cores ());
      Printf.printf "oracle batch-query speedup: %.2fx (%d core(s))\n"
        (par_speedup_of rows "oracle:query")
        (Parallel.available_cores ());
      Printf.printf "wrote %s\n" file;
      if failures > 0 then begin
        Printf.eprintf "efficiency gate: %d failure(s)\n" failures;
        exit 1
      end
  | _ -> die "--validate, --against and --gate-efficiency are mutually exclusive"
