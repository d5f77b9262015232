(* Benchmark driver: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): one set-up builds the pool, and one untimed
   warm-up pass runs every pool entry with the deep output checks and
   records its exact counts.  Then closed-loop units run for S seconds
   (and at least [min_units]), each timed on its own, with further
   set-ups interleaved among them, so that set-up samples are spread over
   the whole run like the units are.  Unit times and set-up times are both
   read as the mean of their p10 and p90, never from total work over one
   long window (NOTES.md says why).  Every unit's counts must equal the
   warm-up pass's, and every set-up must rebuild the same inputs, or the
   run is reported incorrect.

   Traced (--trace 1): one traced set-up, a traced warm-up pass with a
   live metrics registry, then units alternating untraced and traced, so
   the tracing overhead is measured under the same host conditions.

   The last line of stdout is the result object; peak RSS is added by the
   wrapper (run.py), which sees the process from outside. *)

open Ultraspan
open Perfbench

let min_units = 100
let min_setup_reps = 5

(* Share of the untraced run's elapsed time given to set-up samples. *)
let setup_share = 0.25
let now = Unix.gettimeofday

let usage () =
  prerr_endline
    "usage: bench.exe --workload construct|simulate|serve|churn --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" in
  let seed = ref None in
  let seconds = ref None in
  let trace = ref None in
  let int_of s =
    match int_of_string_opt s with Some v -> v | None -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (int_of v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (Workloads.find !workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some trace when seconds >= 1 ->
      (spec, seed, seconds, trace)
  | _ -> usage ()

(* ---------- statistics ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a and n = Array.length a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile a p =
  let s = sorted a and n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* The mean of p10 and p90 (a Tukey midsummary).  On this kind of host a
   run's samples come from a fast and a slow speed, in a share that moves
   from run to run; a single percentile jumps between the two speeds when
   the share crosses it, and this mean moves half as far. *)
let midsummary a = (percentile a 0.1 +. percentile a 0.9) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* A fixed CPU loop, timed: a host-speed sample reported next to the
   figures so host contention can be told from a program change.  Never
   used to normalise a metric. *)
let host_loop_ms () =
  let sample () =
    let t0 = now () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + i) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) *. 1000.
  in
  median (Array.init 3 (fun _ -> sample ()))

(* ---------- output ---------- *)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    let v = if Float.is_finite v then v else 0. in
    Printf.sprintf {|%S: {"value": %.10g, "unit": %S}|} name v unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, |} correct
    attempted failed;
  Printf.printf {|"metrics": {%s}}|}
    (String.concat ", " (List.map metric metrics));
  print_newline ()

(* ---------- the run ---------- *)

type state = {
  prepared : Workloads.prepared;
  reference : (string * int) list array;  (** warm-up counts per entry *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let fail st msg ops =
  st.failed <- st.failed + ops;
  st.errors <- msg :: st.errors

(* Run pool entry [i] once: time the library calls, then check outputs
   and counts untimed.  Returns the unit's wall-clock seconds. *)
let run_unit st i =
  let ops = st.prepared.Workloads.ops.(i) in
  st.attempted <- st.attempted + ops;
  Gc.minor ();
  let t0 = now () in
  match Workloads.span "bench.unit" st.prepared.Workloads.units.(i) with
  | finish ->
      let dt = now () -. t0 in
      let r = finish () in
      if r.Workloads.errors <> [] then
        fail st (String.concat "; " r.Workloads.errors) ops
      else if r.Workloads.counts <> st.reference.(i) then
        fail st (Printf.sprintf "exact counts drifted on entry %d" i) ops;
      dt
  | exception e ->
      fail st (Printexc.to_string e) ops;
      now () -. t0

let setup_once spec ~jobs ~seed =
  Gc.full_major ();
  let t0 = now () in
  let p = spec.Workloads.setup ~jobs ~seed in
  (now () -. t0, p)

(* The warm-up pass; [before_deep] runs between the pass and its deep
   output checks. *)
let warm_up ?(before_deep = ignore) prepared =
  let pass = Workloads.run_pass prepared in
  before_deep ();
  let errors = pass.Workloads.pass_errors @ Workloads.deep_checks pass in
  let total_ops = Array.fold_left ( + ) 0 prepared.Workloads.ops in
  let st =
    {
      prepared;
      reference =
        Array.map (fun r -> r.Workloads.counts) pass.Workloads.results;
      attempted = total_ops;
      failed = 0;
      errors = [];
    }
  in
  if errors <> [] then fail st (String.concat "; " errors) total_ops;
  (st, pass)

(* Closed loop over the pool for [seconds] (and at least [min_units]
   units).  [before] runs untimed ahead of every unit, given the seconds
   elapsed since the loop began; [each] is called around every unit with
   its index. *)
let timed_loop ?(before = ignore) st ~seconds each =
  let pool = Array.length st.prepared.Workloads.units in
  let start = now () in
  let deadline = start +. float_of_int seconds
  and hard_stop = start +. (4. *. float_of_int seconds) +. 30. in
  let samples = ref [] and i = ref 0 in
  while (now () < deadline || !i < min_units) && now () < hard_stop do
    before (now () -. start);
    let idx = !i mod pool in
    samples := (idx, each !i (fun () -> run_unit st idx)) :: !samples;
    incr i
  done;
  Array.of_list (List.rev !samples)

let env_line spec ~jobs ~seed ~loop_start ~loop_end ~units ~setup_reps
    ~setup_s =
  Printf.printf
    "env: workload=%s seed=%d nproc=%d jobs=%d ocaml=%s \
     host_loop_ms_start=%.1f host_loop_ms_end=%.1f units=%d setup_reps=%d \
     setup_s=%.4f\n"
    spec.Workloads.name seed Workloads.nproc jobs Sys.ocaml_version
    loop_start loop_end units setup_reps setup_s

let untraced spec ~jobs ~seed ~seconds =
  let loop_start = host_loop_ms () in
  let _, prepared = setup_once spec ~jobs ~seed in
  let fingerprint = prepared.Workloads.fingerprint () in
  let st, pass = warm_up prepared in
  (* One more set-up, timed and dropped.  It must rebuild the same inputs;
     its garbage is collected before the next unit runs. *)
  let setups = ref [] in
  let resample () =
    let dt, p = setup_once spec ~jobs ~seed in
    if p.Workloads.fingerprint () <> fingerprint then
      fail st "inputs differ between same-seed set-ups" 0;
    setups := dt :: !setups;
    Gc.full_major ()
  in
  let spent () = List.fold_left ( +. ) 0. !setups in
  Gc.full_major ();
  let samples =
    timed_loop st ~seconds
      ~before:(fun elapsed ->
        if spent () < setup_share *. elapsed then resample ())
      (fun _ f -> f ())
  in
  while List.length !setups < min_setup_reps do
    resample ()
  done;
  let dts = Array.map snd samples and setups = Array.of_list !setups in
  let ops = prepared.Workloads.ops in
  let tput = Array.map (fun (i, dt) -> float_of_int ops.(i) /. dt) samples in
  let ms q = 1000. *. percentile dts q and s q = percentile setups q in
  let setup_s = midsummary setups in
  let results = pass.Workloads.results in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
  let out_e = sum (fun r -> r.Workloads.out_edges)
  and out_v = sum (fun r -> r.Workloads.out_vertices) in
  let loop_end = host_loop_ms () in
  env_line spec ~jobs ~seed ~loop_start ~loop_end ~units:(Array.length dts)
    ~setup_reps:(Array.length setups) ~setup_s;
  (* reported for readers; not gated, see NOTES.md *)
  Printf.printf
    "samples: %d units, p10/p50/p90 %.3f/%.3f/%.3f ms, median ops/s %.1f; \
     %d set-ups, p10/p50/p90 %.4f/%.4f/%.4f s\n"
    (Array.length dts) (ms 0.1) (ms 0.5) (ms 0.9) (median tput)
    (Array.length setups) (s 0.1) (s 0.5) (s 0.9);
  ( st,
    [
      ("setup_s", "s", setup_s);
      ("batch_mid_ms", "ms", 1000. *. midsummary dts);
      ("output_edges_per_vertex", "edges/n", ratio out_e out_v);
    ] )

(* ---------- traced run ---------- *)

let layers =
  [
    "bench";
    "graph";
    "spanner";
    "certificate";
    "congest";
    "verify";
    "oracle";
    "dynamic";
  ]

let timed_spans =
  [
    "graph.generate";
    "spanner.ultra_sparse";
    "spanner.bs_derand";
    "certificate.spanner_packing";
    "congest.bs_distributed";
    "congest.spanning_forest";
    "congest.bfs";
    "verify.certificate_local";
    "verify.recertify";
    "oracle.compile";
    "oracle.query";
    "dynamic.apply_batch";
  ]

let count_metrics =
  [
    ("graph.m", "edges");
    ("spanner.ultra_sparse.attempts", "count");
    ("spanner.kept_edges", "edges");
    ("spanner.rounds_accounted", "rounds");
    ("certificate.edges", "edges");
    ("congest.messages", "msgs");
    ("congest.rounds", "rounds");
    ("congest.wakeups", "count");
    ("verify.checker_rounds", "rounds");
    ("verify.checker_messages", "msgs");
    ("oracle.cache_hits", "count");
    ("oracle.cache_misses", "count");
    ("oracle.unreachable", "count");
    ("dynamic.work", "count");
    ("dynamic.rebuild_work", "count");
    ("dynamic.rebuilds", "count");
    ("dynamic.candidates", "edges");
    ("dynamic.dirty", "count");
  ]

let trace_into prof reg =
  Workloads.profile := Some prof;
  Workloads.registry := reg;
  Parallel.set_metrics (Some reg)

let untrace () =
  Workloads.profile := None;
  Workloads.registry := Metrics.disabled;
  Parallel.set_metrics None

(* Profile paths are "outer/inner"; a span's label is the last segment and
   its layer the label's prefix before the first '.'. *)
let label path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let layer path =
  let l = label path in
  match String.index_opt l '.' with Some i -> String.sub l 0 i | None -> l

let parent path =
  Option.map (fun i -> String.sub path 0 i) (String.rindex_opt path '/')

let under root path =
  path = root || String.starts_with ~prefix:(root ^ "/") path

(* Self time of each phase: its time minus its direct children's. *)
let self_times phases =
  let child = Hashtbl.create 16 in
  List.iter
    (fun (path, s, _) ->
      Option.iter
        (fun p ->
          let c = Option.value ~default:0. (Hashtbl.find_opt child p) in
          Hashtbl.replace child p (c +. s))
        (parent path))
    phases;
  List.map
    (fun (path, s, _) ->
      (path, s -. Option.value ~default:0. (Hashtbl.find_opt child path)))
    phases

(* The span dump: each timed scope as a Chrome-trace complete event; a
   span's parent is the prefix of its path. *)
let write_spans path prof =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (Profile.chrome_events prof));
  output_string oc "\n]\n";
  close_out oc

let traced spec ~jobs ~seed ~seconds =
  let loop_start = host_loop_ms () in
  (* one profile records the set-up and the warm-up pass at top level and
     every traced unit under "bench.unit" *)
  let prof = Profile.create () in
  trace_into prof (Metrics.create ());
  let setup_s, prepared = setup_once spec ~jobs ~seed in
  (* the warm-up pass runs against a fresh registry: its counters are the
     totals of exactly one pass over the pool *)
  let reg = Metrics.create () in
  trace_into prof reg;
  let snap = ref (Metrics.snapshot reg) in
  let st, pass =
    warm_up prepared ~before_deep:(fun () ->
        snap := Metrics.snapshot reg;
        untrace ())
  in
  let snap = !snap and live = Metrics.create () in
  let samples =
    timed_loop st ~seconds (fun i f ->
        let on = i mod 2 = 1 in
        if on then trace_into prof live;
        let dt = f () in
        untrace ();
        (on, dt))
  in
  let pick on =
    Array.of_list
      (List.filter_map
         (fun (_, (t, dt)) -> if t = on then Some dt else None)
         (Array.to_list samples))
  in
  let traced_dts = pick true and plain_dts = pick false in
  let phases = Profile.phases prof in
  let mean_s name =
    let s, c =
      List.fold_left
        (fun (s, c) (path, secs, calls) ->
          if label path = name then (s +. secs, c + calls) else (s, c))
        (0., 0) phases
    in
    if c = 0 then 0. else s /. float_of_int c
  in
  let unit_phases = List.filter (fun (p, _, _) -> under "bench.unit" p) phases
  and top_phases =
    List.filter (fun (p, _, _) -> not (String.contains p '/')) phases
  in
  let selfs = self_times unit_phases in
  let unit_total =
    List.fold_left
      (fun a (p, s, _) -> if p = "bench.unit" then a +. s else a)
      0. unit_phases
  in
  let self_share l =
    let t =
      List.fold_left
        (fun a (p, self) -> if layer p = l then a +. self else a)
        0. selfs
    in
    if unit_total > 0. then t /. unit_total else 0.
  in
  let timers = Metrics.create () in
  Profile.export prof timers;
  let timers = Metrics.snapshot timers in
  let words f =
    let ntraced = float_of_int (max 1 (Array.length traced_dts)) in
    List.fold_left
      (fun a (p, _, _) ->
        let name =
          "timing.profile." ^ String.map (function '/' -> '.' | c -> c) p
        in
        match Metrics.find_timer timers name with
        | Some t when layer p = "spanner" -> a +. f t
        | _ -> a)
      0. unit_phases
    /. ntraced
  in
  let count name =
    let of_counts counts =
      Option.value ~default:0 (List.assoc_opt name counts)
    in
    Array.fold_left
      (fun a (r : Workloads.result) -> a + of_counts r.Workloads.counts)
      0 pass.Workloads.results
    + of_counts prepared.Workloads.setup_counts
  in
  let counter name = Option.value ~default:0 (Metrics.find_counter snap name) in
  (* the warm-up pass's congest spans are the only top-level ones *)
  let congest_s =
    List.fold_left
      (fun a (p, s, _) -> if layer p = "congest" then a +. s else a)
      0. top_phases
  in
  let worker = counter "timing.parallel.pool.worker_chunks"
  and caller = counter "timing.parallel.pool.caller_chunks" in
  let loop_end = host_loop_ms () in
  env_line spec ~jobs ~seed ~loop_start ~loop_end
    ~units:(Array.length samples) ~setup_reps:1 ~setup_s;
  let spans_path =
    Workloads.scratch_file ("spans-" ^ spec.Workloads.name ^ ".json")
  in
  write_spans spans_path prof;
  Printf.printf "spans: %d phases; span dump in %s\n" (List.length phases)
    spans_path;
  let hits = count "oracle.cache_hits" in
  ( st,
    List.map (fun n -> (n ^ "_s", "s/call", mean_s n)) timed_spans
    @ List.map (fun (n, u) -> (n, u, float_of_int (count n))) count_metrics
    @ [
        ( "spanner.minor_words",
          "words",
          words (fun t -> t.Metrics.tminor_words) );
        ( "spanner.major_words",
          "words",
          words (fun t -> t.Metrics.tmajor_words) );
        ( "congest.messages_per_s",
          "msgs/s",
          if congest_s > 0. then
            float_of_int (count "congest.messages") /. congest_s
          else 0. );
        ( "congest.payload_words",
          "words",
          float_of_int (counter "congest.payload_words_total") );
        ( "parallel.sections",
          "count",
          float_of_int (counter "parallel.sections_total") );
        ("parallel.worker_share", "ratio", ratio worker (worker + caller));
        ( "oracle.cache_hit_ratio",
          "ratio",
          ratio hits (hits + count "oracle.cache_misses") );
        ( "dynamic.work_ratio",
          "ratio",
          ratio (count "dynamic.work") (count "dynamic.rebuild_work") );
        ( "trace.overhead",
          "ratio",
          (median traced_dts /. median plain_dts) -. 1. );
      ]
    @ List.map (fun l -> ("self." ^ l, "ratio", self_share l)) layers )

let () =
  let spec, seed, seconds, trace = parse_args () in
  let st, metrics =
    if trace then traced spec ~jobs:spec.Workloads.traced_jobs ~seed ~seconds
    else untraced spec ~jobs:1 ~seed ~seconds
  in
  List.iter
    (fun e -> Printf.eprintf "bench: FAILED: %s\n" e)
    (List.rev st.errors);
  let correct = st.failed = 0 && st.errors = [] in
  print_result ~correct ~attempted:st.attempted ~failed:st.failed metrics;
  exit (if correct then 0 else 1)
