open Ultraspan
open Helpers

(* Differential tests for the two simulator engines: the CSR slot-based
   [`Fast] message plane must be observably identical to the [`Ref]
   list-based oracle — states, stats, fault-event logs and exported trace
   JSONL, byte for byte. *)

(* ---------- a family of random-but-deterministic programs ----------

   Keyed by [seed]: every node sends to a pseudo-random subset of its
   neighbours with pseudo-random payloads (1-4 words) while [round < cap],
   and halts pseudo-randomly (woken nodes re-halt at [round >= cap], so
   every run quiesces). *)

let random_program ~seed ~cap =
  let h a b c =
    Rng.bits (Rng.create ((seed * 1_000_003) + (a * 8191) + (b * 131) + c))
  in
  {
    Network.init = (fun _ v -> v land 0xff);
    round =
      (fun g ~round ~me st inbox ->
        let absorbed =
          List.fold_left
            (fun acc (s, p) -> acc + s + Array.fold_left ( + ) 0 p)
            st inbox
        in
        if round >= cap then { Network.state = absorbed; out = []; halt = true }
        else begin
          let out =
            List.rev
              (Graph.fold_adj g me
                 (fun acc u _ ->
                   let r = h me u round in
                   if r land 3 = 0 then acc
                   else begin
                     let words = 1 + (r lsr 2) mod 4 in
                     let payload =
                       Array.init words (fun i -> h u me (round + i) land 0xffff)
                     in
                     (u, payload) :: acc
                   end)
                 [])
          in
          let halt = h me 17 round land 7 < 3 in
          { Network.state = absorbed; out; halt }
        end);
  }

let cap_of_seed seed = 2 + (abs seed mod 7)

(* Run under one engine with a fresh trace sink (and optionally a fresh
   injector built from [plan]); return everything observable. *)
let observe ~engine ?jobs ?plan g prog =
  let faults = Option.map Faults.make plan in
  let tr = Trace.create g in
  let states, stats = Network.run ?faults ~trace:tr ~engine ?jobs g prog in
  let events = match faults with Some f -> Faults.events f | None -> [] in
  (states, stats, events, Trace.to_jsonl tr)

let engines_agree ?plan g prog =
  observe ~engine:`Fast ?plan g prog = observe ~engine:`Ref ?plan g prog

let mixed_plan_of_seed g seed =
  let rng = Rng.create (succ (abs seed)) in
  let n = Graph.n g in
  Faults.empty
  |> Faults.with_drops ~seed 0.2
  |> Faults.random_crashes ~rng ~n ~within:5 ~count:(min 3 (n - 1))
  |> Faults.random_link_failures ~rng g ~within:5 ~count:(min 4 (Graph.m g))

(* ---------- qcheck properties ---------- *)

let random_programs_fault_free =
  qcheck ~count:60 "random programs: engines identical (fault-free)" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      engines_agree g (random_program ~seed ~cap:(cap_of_seed seed)))

let random_programs_under_faults =
  qcheck ~count:60 "random programs: engines identical (mixed faults)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let plan = mixed_plan_of_seed g seed in
      engines_agree ~plan g (random_program ~seed ~cap:(cap_of_seed seed)))

let native_protocols_agree =
  qcheck ~count:25 "native protocols: engines identical" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:50 seed in
      let u = Graph.with_unit_weights g in
      let both run = run `Fast = run `Ref in
      let traced run engine =
        let tr = Trace.create g in
        let out = run ~trace:tr ~engine in
        (out, Trace.to_jsonl tr)
      in
      both (traced (fun ~trace ~engine -> Programs.bfs ~trace ~engine u ~root:0))
      && both
           (traced (fun ~trace ~engine ->
                let values = Array.init (Graph.n g) (fun v -> (v * 37) mod 101) in
                Programs.broadcast_max ~trace ~engine u ~values))
      && both
           (traced (fun ~trace ~engine ->
                Programs.maximal_matching ~trace ~engine u))
      && both
           (traced (fun ~trace ~engine ->
                Programs.luby_mis ~trace ~engine ~seed u))
      && both
           (traced (fun ~trace ~engine ->
                Programs.bellman_ford ~trace ~engine g ~source:0))
      && both
           (traced (fun ~trace ~engine -> Programs.spanning_forest ~trace ~engine g)))

let bfs_under_faults_agrees =
  qcheck ~count:25 "faulty BFS: engines identical incl. fault events" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:40 seed in
      let plan = mixed_plan_of_seed g seed in
      let run engine =
        let f = Faults.make plan in
        let tr = Trace.create g in
        let out = Programs.bfs ~faults:f ~trace:tr ~engine g ~root:0 in
        (out, Faults.events f, Trace.to_jsonl tr)
      in
      run `Fast = run `Ref)

let bs_distributed_agrees =
  qcheck ~count:15 "distributed Baswana-Sen: engines identical" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let run engine =
        let tr = Trace.create g in
        let o = Bs_distributed.run ~trace:tr ~engine ~seed ~k:3 g in
        ( o.Bs_distributed.spanner.Spanner.keep,
          o.Bs_distributed.network_stats,
          Trace.to_jsonl tr )
      in
      run `Fast = run `Ref)

(* ---------- model-violation and limit behaviour ---------- *)

let violations_agree () =
  let g = Generators.path 3 in
  let raises prog =
    let attempt engine =
      match Network.run ~engine g prog with
      | _ -> None
      | exception Network.Not_a_neighbor { sender; target } ->
          Some (`Nn (sender, target))
      | exception Network.Duplicate_message { sender; target } ->
          Some (`Dup (sender, target))
      | exception Network.Message_too_large { sender; words; limit } ->
          Some (`Big (sender, words, limit))
    in
    let f = attempt `Fast and r = attempt `Ref in
    Alcotest.(check bool) "violation parity" true (f = r && f <> None)
  in
  let once out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me:_ () _ ->
          { Network.state = (); out = (if round = 0 then out else []); halt = true });
    }
  in
  (* vertex 0's only neighbour is 1: vertex 2 is not adjacent *)
  raises
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me () _ ->
          let out = if round = 0 && me = 0 then [ (2, [| 0 |]) ] else [] in
          { Network.state = (); out; halt = true });
    };
  raises (once [ (1, [| 0 |]); (1, [| 1 |]) ]);
  raises (once [ (1, [| 0; 0; 0; 0; 0 |]) ])

let round_limit_agrees () =
  (* An infinite ping-pong on an edge: both engines must trip the limit
     with identical partial stats. *)
  let g = Generators.path 2 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round:_ ~me () _ ->
          let out = Graph.fold_adj g me (fun acc u _ -> (u, [| 1 |]) :: acc) [] in
          { Network.state = (); out; halt = false });
    }
  in
  let partial engine =
    match Network.run ~max_rounds:5 ~engine g prog with
    | _ -> None
    | exception Network.Round_limit_exceeded { limit; partial } ->
        Some (limit, partial)
  in
  let f = partial `Fast and r = partial `Ref in
  Alcotest.(check bool) "limit parity" true (f = r && f <> None)

(* ---------- sharded rounds vs the oracle ----------

   The [`Fast] engine's sharded rounds must match the [`Ref] oracle for
   every job count — bare (step phase across the pool), traced and
   faulted (step phase on the caller, assembly stays parallel), and on
   model-violation / round-limit paths, registry included. *)

let fast_jobs = [ 1; 4 ]

(* [run engine jobs] under the oracle, then under the Fast engine at every
   job count in [fast_jobs]: all must agree. *)
let fast_matches_ref run =
  let r = run `Ref 1 in
  List.for_all (fun jobs -> run `Fast jobs = r) fast_jobs

let sharded_bare =
  qcheck ~count:60 "sharded == ref: random programs, bare (jobs 1/4)" seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      fast_matches_ref (fun engine jobs -> Network.run ~engine ~jobs g prog))

let sharded_traced_faulted =
  qcheck ~count:40
    "sharded == ref: random programs, trace + mixed faults (jobs 1/4)"
    seed_gen
    (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      let plan = mixed_plan_of_seed g seed in
      fast_matches_ref (fun engine jobs -> observe ~engine ~jobs ~plan g prog))

let sharded_metrics_jobs_invariant =
  qcheck ~count:15
    "sharded == ref: stripped deterministic metrics (jobs 1/4)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:50 seed in
      let prog = random_program ~seed ~cap:(cap_of_seed seed) in
      fast_matches_ref (fun engine jobs ->
          let r = Metrics.create () in
          ignore (Network.run ~metrics:r ~engine ~jobs g prog);
          Metrics.exposition ~strip:true (Metrics.snapshot r)))

let sharded_violations_agree () =
  (* Violators placed mid-range so shard-ordered selection is exercised:
     on a 50-path the oracle reaches node 10 first — the sharded rounds
     must raise node 10's violation too, and leave the same partial
     registry, for any jobs. *)
  let g = Generators.path 50 in
  let raises prog =
    let attempt engine jobs =
      let r = Metrics.create () in
      let outcome =
        match Network.run ~metrics:r ~engine ~jobs g prog with
        | _ -> None
        | exception Network.Not_a_neighbor { sender; target } ->
            Some (`Nn (sender, target))
        | exception Network.Duplicate_message { sender; target } ->
            Some (`Dup (sender, target))
        | exception Network.Message_too_large { sender; words; limit } ->
            Some (`Big (sender, words, limit))
      in
      let snap = Metrics.snapshot r in
      (outcome, snap.Metrics.partial, Metrics.exposition ~strip:true snap)
    in
    let raised, partial, expo = attempt `Ref 1 in
    Alcotest.(check bool) "oracle raises" true (raised <> None);
    Alcotest.(check bool) "aborted run flags the registry partial" true partial;
    List.iter
      (fun jobs ->
        let raised', partial', expo' = attempt `Fast jobs in
        Alcotest.(check bool)
          (Printf.sprintf "violation parity at jobs %d" jobs)
          true
          (raised' = raised && partial' = partial);
        Alcotest.(check string)
          (Printf.sprintf "partial registry at jobs %d" jobs)
          expo expo')
      fast_jobs
  in
  let offender me out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me:v () _ ->
          let out = if round = 0 && v = me then out else [] in
          { Network.state = (); out; halt = true });
    }
  in
  (* two violators in different shards: lowest node must win *)
  let two =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me () _ ->
          let out =
            if round = 0 && (me = 10 || me = 40) then [ (0, [| 0 |]) ] else []
          in
          { Network.state = (); out; halt = true });
    }
  in
  raises (offender 30 [ (0, [| 7 |]) ]);
  raises (offender 30 [ (31, [| 0 |]); (31, [| 1 |]) ]);
  raises (offender 30 [ (31, [| 0; 0; 0; 0; 0 |]) ]);
  raises two

let sharded_round_limit_agrees () =
  let g = Generators.cycle 40 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round:_ ~me () _ ->
          let out = Graph.fold_adj g me (fun acc u _ -> (u, [| 1 |]) :: acc) [] in
          { Network.state = (); out; halt = false });
    }
  in
  let partial engine jobs =
    match Network.run ~max_rounds:5 ~engine ~jobs g prog with
    | _ -> None
    | exception Network.Round_limit_exceeded { limit; partial } ->
        Some (limit, partial)
  in
  Alcotest.(check bool) "sharded limit parity" true
    (partial `Ref 1 <> None && fast_matches_ref partial)

let suite =
  [
    random_programs_fault_free;
    random_programs_under_faults;
    native_protocols_agree;
    bfs_under_faults_agrees;
    bs_distributed_agrees;
    case "model violations identical" violations_agree;
    case "round limit identical" round_limit_agrees;
    sharded_bare;
    sharded_traced_faulted;
    sharded_metrics_jobs_invariant;
    case "sharded: model violations identical" sharded_violations_agree;
    case "sharded: round limit identical" sharded_round_limit_agrees;
  ]
