open Ultraspan
open Helpers

(* ---------- the unified metrics plane (PR: observability) ---------- *)

(* A flooding program that never halts: every node re-floods every round,
   so [max_rounds] always fires.  Used by the partial-snapshot test. *)
let restless_program =
  {
    Network.init = (fun _ _ -> 0);
    round =
      (fun g ~round:_ ~me st mb ->
        send_all g mb me [| st |];
        { Network.state = st + 1; halt = false });
  }

(* ---------- registry semantics ---------- *)

let registry_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.b.c" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.value c);
  (* registration is idempotent: same name, same cell *)
  let c' = Metrics.counter r "a.b.c" in
  Metrics.incr c';
  Alcotest.(check int) "same handle" 43 (Metrics.value c);
  let g = Metrics.gauge r "a.g" in
  Metrics.set g 7;
  Metrics.set_max g 3;
  Alcotest.(check int) "set_max keeps max" 7 (Metrics.gauge_value g);
  Metrics.set_max g 11;
  Alcotest.(check int) "set_max raises high-water" 11 (Metrics.gauge_value g);
  (* kind mismatch and malformed names are programming errors *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: a.b.c already registered with another type")
    (fun () -> ignore (Metrics.gauge r "a.b.c"));
  List.iter
    (fun bad ->
      match Metrics.counter r bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "name %S should be rejected" bad)
    [ ""; "."; "a..b"; ".a"; "a."; "A.b"; "a b"; "a-b" ]

let histogram_buckets () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1; 2; 4 |] r "h" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 5 ];
  let s = Metrics.snapshot r in
  match s.Metrics.histograms with
  | [ ("h", d) ] ->
      Alcotest.(check (array int)) "edges" [| 1; 2; 4 |] d.Metrics.hedges;
      (* le semantics: le 1 <- {0,1}; le 2 <- {2}; le 4 <- {3,4}; over <- {5} *)
      Alcotest.(check (array int)) "counts" [| 2; 1; 2; 1 |] d.Metrics.hcounts;
      Alcotest.(check int) "sum" 15 d.Metrics.hsum;
      Alcotest.(check int) "total" 6 d.Metrics.htotal
  | _ -> Alcotest.fail "expected exactly one histogram"

let timer_namespace () =
  let r = Metrics.create () in
  let t = Metrics.timer r "phase.setup" in
  let x = Metrics.time t (fun () -> 42) in
  Alcotest.(check int) "time returns the thunk's result" 42 x;
  let s = Metrics.snapshot r in
  (match Metrics.find_timer s "timing.phase.setup" with
  | Some d -> Alcotest.(check int) "one call recorded" 1 d.Metrics.tcalls
  | None -> Alcotest.fail "timer must live under timing.*");
  (* absolute overwrite is idempotent *)
  let t2 = Metrics.timer r "timing.phase.setup" in
  Metrics.timer_set t2 ~seconds:1.5 ~calls:3 ~minor_words:0. ~major_words:0.
    ~promoted_words:0.;
  Metrics.timer_set t2 ~seconds:1.5 ~calls:3 ~minor_words:0. ~major_words:0.
    ~promoted_words:0.;
  match Metrics.find_timer (Metrics.snapshot r) "timing.phase.setup" with
  | Some d ->
      Alcotest.(check int) "overwrite, not accumulate" 3 d.Metrics.tcalls;
      Alcotest.(check (float 1e-9)) "seconds overwritten" 1.5 d.Metrics.tseconds
  | None -> Alcotest.fail "timer vanished"

let disabled_hot_path_allocates_nothing () =
  let c = Metrics.counter Metrics.disabled "x.c" in
  let g = Metrics.gauge Metrics.disabled "x.g" in
  let h = Metrics.histogram Metrics.disabled "x.h" in
  (* warm up so any one-time allocation is done *)
  Metrics.incr c;
  Metrics.observe h 1;
  let (), w =
    alloc_words (fun () ->
        for i = 0 to 99_999 do
          Metrics.incr c;
          Metrics.add c i;
          Metrics.set g i;
          Metrics.set_max g i;
          Metrics.observe h i
        done)
  in
  check_words "no-op hot path, minor" ~ceiling:256.0 w.minor;
  Alcotest.(check int) "dead counter never counts" 0 (Metrics.value c)

(* ---------- snapshots and artifacts ---------- *)

let populated_registry () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "congest.deliveries_total") 315;
  Metrics.add (Metrics.counter r "timing.congest.arena_slots_touched") 9;
  Metrics.set (Metrics.gauge r "congest.max_payload_words") 4;
  let h = Metrics.histogram ~buckets:[| 2; 8 |] r "congest.per_round" in
  List.iter (Metrics.observe h) [ 1; 5; 100 ];
  Metrics.timer_set
    (Metrics.timer r "profile.build")
    ~seconds:0.25 ~calls:2 ~minor_words:1024. ~major_words:16.
    ~promoted_words:8.;
  r

let snapshot_roundtrip () =
  let r = populated_registry () in
  Metrics.mark_partial r;
  let s = Metrics.snapshot r in
  Alcotest.(check bool) "partial flag" true s.Metrics.partial;
  let s' = Metrics_io.snapshot_of_json (Metrics_io.json_of_snapshot s) in
  Alcotest.(check bool) "roundtrip is exact" true (s = s');
  (* and through a file *)
  let path = Filename.temp_file "ultraspan" ".metrics.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Metrics_io.save path s;
      let s'' = Metrics_io.load path in
      Alcotest.(check bool) "file roundtrip is exact" true (s = s''))

let bad_schema_rejected () =
  let path = Filename.temp_file "ultraspan" ".metrics.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\": \"something-else/9\", \"partial\": false}";
      close_out oc;
      match Metrics_io.load path with
      | exception Exp_json.Error _ -> ()
      | _ -> Alcotest.fail "wrong schema must be rejected")

let strip_timing_drops_execution () =
  let s = Metrics.snapshot (populated_registry ()) in
  let d = Metrics.strip_timing s in
  Alcotest.(check int) "timers all dropped" 0 (List.length d.Metrics.timers);
  Alcotest.(check bool) "timing counter dropped" true
    (Metrics.find_counter d "timing.congest.arena_slots_touched" = None);
  Alcotest.(check (option int))
    "deterministic counter kept" (Some 315)
    (Metrics.find_counter d "congest.deliveries_total");
  Alcotest.(check int) "histogram kept" 1 (List.length d.Metrics.histograms)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let exposition_deterministic () =
  let r = populated_registry () in
  let s = Metrics.snapshot r in
  Alcotest.(check string)
    "byte-identical re-render"
    (Metrics.exposition s) (Metrics.exposition s);
  let e = Metrics.exposition ~strip:true s in
  Alcotest.(check bool) "strip removes timing lines" false
    (contains ~affix:"timing." e);
  Metrics.mark_partial r;
  let e' = Metrics.exposition (Metrics.snapshot r) in
  Alcotest.(check bool) "partial marker line" true
    (contains ~affix:"# partial 1" e')

(* ---------- differential laws ---------- *)

(* BFS on Fast vs Ref, and distributed Baswana-Sen on Ref vs Fast at
   jobs 1 and 4 with the registry also attached to the domain pool, as the
   CLI's --metrics does. *)
let engine_differential =
  qcheck ~count:20 "metrics: Fast and Ref engines agree outside timing.*"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let run engine =
        let r = Metrics.create () in
        let _ = Programs.bfs ~metrics:r ~engine g ~root:0 in
        Metrics.snapshot r
      in
      let sf = run `Fast and sr = run `Ref in
      let df = Metrics.strip_timing sf and dr = Metrics.strip_timing sr in
      let bs engine jobs =
        let r = Metrics.create () in
        Parallel.set_metrics (Some r);
        Fun.protect
          ~finally:(fun () -> Parallel.set_metrics None)
          (fun () ->
            ignore (Bs_distributed.run ~metrics:r ~engine ~jobs ~seed ~k:3 g));
        Metrics.strip_timing (Metrics.snapshot r)
      in
      let bref = bs `Ref 1 in
      let bexp = Metrics.exposition bref in
      Metrics.exposition df = Metrics.exposition dr
      && Metrics.find_counter df "congest.deliveries_total"
         = Metrics.find_counter dr "congest.deliveries_total"
      && Metrics.find_counter df "congest.deliveries_total" <> Some 0
      && Metrics.find_counter bref "congest.payload_words_total" <> None
      && Metrics.find_gauge bref "congest.max_payload_words" <> None
      && bexp = Metrics.exposition (bs `Fast 1)
      && bexp = Metrics.exposition (bs `Fast 4))

let jobs_invariance =
  qcheck ~count:10 "metrics: parallel counters are jobs-invariant" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let witness jobs =
        let r = Metrics.create () in
        Parallel.set_metrics (Some r);
        Fun.protect
          ~finally:(fun () -> Parallel.set_metrics None)
          (fun () ->
            let sp = Bs_derand.run ~k:2 g in
            ignore
              (Stretch.max_edge_stretch ~jobs g sp.Bs_derand.spanner.keep);
            ignore
              (Parallel.map_reduce ~jobs ~n:(Graph.n g)
                 ~map:(fun i -> i * i)
                 ~init:0 ~reduce:( + )));
        Metrics.exposition ~strip:true (Metrics.snapshot r)
      in
      witness 1 = witness 4)

let partial_snapshot_on_round_limit () =
  let g = unit_graph_of_seed 12 in
  let r = Metrics.create () in
  (match Network.run ~max_rounds:3 ~metrics:r g restless_program with
  | exception Network.Round_limit_exceeded _ -> ()
  | _ -> Alcotest.fail "restless program must exceed the round limit");
  let s = Metrics.snapshot r in
  Alcotest.(check bool) "snapshot flagged partial" true s.Metrics.partial;
  match Metrics.find_counter s "congest.rounds_total" with
  | Some rounds when rounds > 0 -> ()
  | _ -> Alcotest.fail "partial snapshot still carries the completed rounds"

let arena_counters_recorded () =
  (* One arena name for every job count: each delivered payload word is
     written into the arena exactly once. *)
  let g = unit_graph_of_seed 12 in
  List.iter
    (fun jobs ->
      let r = Metrics.create () in
      ignore (Programs.bfs ~metrics:r ~jobs g ~root:0);
      let s = Metrics.snapshot r in
      let cnt name = Option.value ~default:0 (Metrics.find_counter s name) in
      let words = cnt "congest.payload_words_total" in
      Alcotest.(check bool) "payload words delivered" true (words > 0);
      Alcotest.(check int)
        (Printf.sprintf "arena words = payload words at jobs %d" jobs)
        words
        (cnt "timing.congest.arena_words_written");
      Alcotest.(check bool)
        (Printf.sprintf "arena slots touched at jobs %d" jobs)
        true
        (cnt "timing.congest.arena_slots_touched" > 0))
    [ 1; 4 ]

(* ---------- profile integration ---------- *)

let profile_nested_scopes () =
  let p = Profile.create () in
  Profile.time p "outer" (fun () ->
      Profile.time p "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Profile.time p "inner" (fun () -> ignore (Sys.opaque_identity 2)));
  Profile.time p "tail" (fun () -> ());
  let paths = List.map (fun (p, _, _) -> p) (Profile.phases p) in
  Alcotest.(check (list string))
    "nested paths in first-use order"
    [ "outer"; "outer/inner"; "tail" ] paths;
  let calls path =
    match List.find_opt (fun (p, _, _) -> p = path) (Profile.phases p) with
    | Some (_, _, c) -> c
    | None -> -1
  in
  Alcotest.(check int) "re-entry accumulates" 2 (calls "outer/inner");
  (* export lands under timing.profile.* with '/' -> '.' *)
  let r = Metrics.create () in
  Profile.export p r;
  let s = Metrics.snapshot r in
  (match Metrics.find_timer s "timing.profile.outer.inner" with
  | Some d -> Alcotest.(check int) "exported calls" 2 d.Metrics.tcalls
  | None -> Alcotest.fail "nested phase missing from registry");
  (* re-export is idempotent (absolute overwrite) *)
  Profile.export p r;
  Alcotest.(check bool) "idempotent export" true
    (Metrics.snapshot r = s);
  let events = Profile.chrome_events p in
  Alcotest.(check int) "one event per span instance" 4 (List.length events);
  List.iter
    (fun e ->
      if not (contains ~affix:"\"ph\":\"X\"" e) then
        Alcotest.failf "not a complete event: %s" e)
    events

(* A span that allocates 10,000 conses (30,000 words) and one
   100,000-word array with no collection inside must report at least
   those words, through Metrics.time and through Profile.time alike:
   [Gc.quick_stat] read 0 minor words for such a span on OCaml 5.1. *)
let span_words_without_collection () =
  let build () =
    let l = List.init 10_000 Fun.id and a = Array.make 100_000 0 in
    ignore (Sys.opaque_identity (l, a))
  in
  let check_timer what = function
    | None -> Alcotest.failf "%s: timer missing" what
    | Some d ->
        if d.Metrics.tminor_words < 30_000. then
          Alcotest.failf "%s: %.0f minor words, want >= 30000" what
            d.Metrics.tminor_words;
        if d.Metrics.tmajor_words < 100_000. then
          Alcotest.failf "%s: %.0f major words, want >= 100000" what
            d.Metrics.tmajor_words
  in
  (* An emptied minor heap holds the conses without a collection. *)
  let r = Metrics.create () in
  let tm = Metrics.timer r "alloc" in
  Gc.minor ();
  Metrics.time tm build;
  check_timer "Metrics.time"
    (Metrics.find_timer (Metrics.snapshot r) "timing.alloc");
  let p = Profile.create () in
  Gc.minor ();
  Profile.time p "alloc" build;
  let r = Metrics.create () in
  Profile.export p r;
  check_timer "Profile.time"
    (Metrics.find_timer (Metrics.snapshot r) "timing.profile.alloc")

let suite =
  [
    case "registry semantics" registry_semantics;
    case "histogram bucket edges (le semantics)" histogram_buckets;
    case "timers live in timing.*" timer_namespace;
    case "disabled hot path allocates nothing"
      disabled_hot_path_allocates_nothing;
    case "snapshot roundtrips through ultraspan-metrics/1" snapshot_roundtrip;
    case "wrong schema is rejected" bad_schema_rejected;
    case "strip_timing drops the execution namespace"
      strip_timing_drops_execution;
    case "exposition is deterministic" exposition_deterministic;
    engine_differential;
    jobs_invariance;
    case "round-limit abort flushes a partial snapshot"
      partial_snapshot_on_round_limit;
    case "arena counters match delivered payload words" arena_counters_recorded;
    case "profile: nested scopes, export, chrome events"
      profile_nested_scopes;
    case "span GC words without a collection" span_words_without_collection;
  ]
