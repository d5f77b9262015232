open Ultraspan
open Helpers

(* ---------- the trace sink (PR: observability) ---------- *)

let mixed_plan_of_seed g seed =
  let rng = Rng.create (succ (abs seed)) in
  let n = Graph.n g in
  Faults.empty
  |> Faults.with_drops ~seed 0.15
  |> Faults.random_crashes ~rng ~n ~within:4 ~count:(min 3 (n - 1))
  |> Faults.random_link_failures ~rng g ~within:4 ~count:(min 4 (Graph.m g))

let sum = Array.fold_left ( + ) 0

let round_sum tr f =
  Array.fold_left (fun a r -> a + f r) 0 (Trace.rounds tr)

let trace_is_pure_observation =
  qcheck "trace sink: pure observation, sums reconcile with stats" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let plain = Network.run g (flood_program 0) in
      let tr = Trace.create g in
      let traced = Network.run ~trace:tr g (flood_program 0) in
      let _, stats = traced in
      plain = traced
      && Array.length (Trace.rounds tr) = stats.Network.rounds
      && round_sum tr (fun r -> r.Trace.delivered) = stats.Network.messages
      && round_sum tr (fun r -> r.Trace.active) = stats.Network.wakeups
      && sum (Trace.sent tr) = stats.Network.messages
      && sum (Trace.received tr) = stats.Network.messages
      && sum (Trace.edge_load tr) = stats.Network.messages
      && Trace.total_delivered tr = stats.Network.messages
      && round_sum tr (fun r -> r.Trace.drops) = 0
      && Trace.total_fault_events tr = 0)

let trace_reconciles_with_faults =
  qcheck ~count:20 "trace sink: fault counters reconcile with the injector"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let f = Faults.make (mixed_plan_of_seed g seed) in
      let tr = Trace.create g in
      let _, stats = Network.run ~faults:f ~trace:tr g (flood_program 0) in
      round_sum tr (fun r -> r.Trace.drops) = stats.Network.drops
      && stats.Network.drops = Faults.drops f
      && round_sum tr (fun r -> r.Trace.crashes) = Faults.crashed_nodes f
      && round_sum tr (fun r -> r.Trace.severs) = Faults.severed_links f
      && round_sum tr (fun r -> r.Trace.delivered) = stats.Network.messages
      && Trace.total_fault_events tr = List.length (Faults.events f))

let jsonl_round_trips =
  qcheck ~count:20 "trace sink: JSONL round records parse back exactly"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let f = Faults.make (mixed_plan_of_seed g seed) in
      let tr = Trace.create g in
      let _ = Network.run ~faults:f ~trace:tr g (flood_program 0) in
      let parsed =
        String.split_on_char '\n' (Trace.to_jsonl tr)
        |> List.filter_map Trace.round_of_jsonl
      in
      parsed = Array.to_list (Trace.rounds tr))

let exports_are_deterministic =
  qcheck ~count:10 "trace sink: seeded runs export byte-identical traces"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let export () =
        let f = Faults.make (mixed_plan_of_seed g seed) in
        let tr = Trace.create g in
        let _ = Network.run ~faults:f ~trace:tr g (flood_program 0) in
        (Trace.to_jsonl tr, Trace.to_chrome tr)
      in
      export () = export ())

let count_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let c = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr c
  done;
  !c

let chrome_export_well_formed () =
  let g = Generators.path 6 in
  let tr = Trace.create g in
  let _, stats = Network.run ~trace:tr g (flood_program 0) in
  let chrome = Trace.to_chrome tr in
  Alcotest.(check int) "one duration slice per round" stats.Network.rounds
    (count_substring chrome {|"ph":"X"|});
  Alcotest.(check int) "two counter tracks per round"
    (2 * stats.Network.rounds)
    (count_substring chrome {|"ph":"C"|});
  Alcotest.(check bool) "array-shaped" true
    (chrome.[0] = '[' && chrome.[String.length chrome - 1] = '\n'
    && String.length chrome >= 2
    && chrome.[String.length chrome - 2] = ']')

let trace_is_single_use () =
  let g = Generators.path 3 in
  let tr = Trace.create g in
  let _ = Network.run ~trace:tr g (flood_program 0) in
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Trace.start: sink already used (build a fresh one)")
    (fun () -> ignore (Network.run ~trace:tr g (flood_program 0)))

let trace_rejects_wrong_graph () =
  let tr = Trace.create (Generators.path 3) in
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Trace.start: sink was built for a different graph")
    (fun () ->
      ignore (Network.run ~trace:tr (Generators.path 5) (flood_program 0)))

let traced_programs_agree =
  qcheck ~count:15 "native programs: traced run returns the same answers"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let tr = Trace.create g in
      let plain = Programs.bfs g ~root:0 in
      let traced = Programs.bfs ~trace:tr g ~root:0 in
      let _, stats = traced in
      plain = traced
      && round_sum tr (fun r -> r.Trace.delivered) = stats.Network.messages)

let suite =
  [
    trace_is_pure_observation;
    trace_reconciles_with_faults;
    jsonl_round_trips;
    exports_are_deterministic;
    case "trace: chrome export shape" chrome_export_well_formed;
    case "trace: sink single-use" trace_is_single_use;
    case "trace: graph mismatch" trace_rejects_wrong_graph;
    traced_programs_agree;
  ]
