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
      (fun g ~round ~me st mb ->
        let absorbed =
          Network.fold mb
            (fun acc c ->
              let acc = ref (acc + Network.sender mb c) in
              for i = 0 to Network.length mb c - 1 do
                acc := !acc + Network.word mb c i
              done;
              !acc)
            st
        in
        if round >= cap then { Network.state = absorbed; halt = true }
        else begin
          Graph.iter_adj g me (fun u _ ->
              let r = h me u round in
              if r land 3 <> 0 then begin
                let words = 1 + (r lsr 2) mod 4 in
                send_to g mb me u
                  (Array.init words (fun i -> h u me (round + i) land 0xffff))
              end);
          let halt = h me 17 round land 7 < 3 in
          { Network.state = absorbed; halt }
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
      | exception Network.Not_a_neighbor { sender; arc } ->
          Some (`Nn (sender, arc))
      | exception Network.Duplicate_message { sender; target } ->
          Some (`Dup (sender, target))
      | exception Network.Message_too_large { sender; words; limit } ->
          Some (`Big (sender, words, limit))
    in
    let f = attempt `Fast and r = attempt `Ref in
    Alcotest.(check bool) "violation parity" true (f = r && f <> None)
  in
  (* every node sends [out] (as (neighbour, payload)) in round 0 *)
  let once out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me () mb ->
          if round = 0 then
            List.iter
              (fun (u, pl) ->
                if Graph.mem_edge g me u then send_to g mb me u pl)
              out;
          { Network.state = (); halt = true });
    }
  in
  (* vertex 0's only neighbour is 1: the arc 1 -> 2 is not in its slice *)
  raises
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round ~me () mb ->
          if round = 0 && me = 0 then
            Network.send mb ~arc:(Graph.arc_index g 1 2) [| 0 |];
          { Network.state = (); halt = true });
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
        (fun g ~round:_ ~me () mb ->
          send_all g mb me [| 1 |];
          { Network.state = (); halt = false });
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
        | exception Network.Not_a_neighbor { sender; arc } ->
            Some (`Nn (sender, arc))
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
  (* node [me] sends [out] in round 0, as (arc, payload) *)
  let offender me out =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me:v () mb ->
          if round = 0 && v = me then
            List.iter (fun (arc, pl) -> Network.send mb ~arc pl) out;
          { Network.state = (); halt = true });
    }
  in
  (* two violators in different shards: lowest node must win *)
  let two =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun _ ~round ~me () mb ->
          if round = 0 && (me = 10 || me = 40) then
            Network.send mb ~arc:0 [| 0 |];
          { Network.state = (); halt = true });
    }
  in
  let arc u v = Graph.arc_index g u v in
  raises (offender 30 [ (arc 0 1, [| 7 |]) ]);
  raises (offender 30 [ (arc 30 31, [| 0 |]); (arc 30 31, [| 1 |]) ]);
  raises (offender 30 [ (arc 30 31, [| 0; 0; 0; 0; 0 |]) ]);
  raises two

let sharded_round_limit_agrees () =
  let g = Generators.cycle 40 in
  let prog =
    {
      Network.init = (fun _ _ -> ());
      round =
        (fun g ~round:_ ~me () mb ->
          send_all g mb me [| 1 |];
          { Network.state = (); halt = false });
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

(* The Lemma 4.1 waves and the distributed stretch-friendly partition
   built from them: Fast at jobs 1 and 4 against the oracle. *)
let cluster_waves_agree =
  qcheck ~count:10 "cluster waves and sf_distributed: fast (jobs 1/4) == ref"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:60 seed in
      let p, _ = Stretch_friendly.partition ~t:4 g in
      let part = Cluster_programs.of_partition p in
      let values = Array.init (Graph.n g) (fun v -> (v * v) mod 11) in
      let per_cluster =
        Array.init (Partition.count p) (fun c -> (c * 7) + 1)
      in
      fast_matches_ref (fun engine jobs ->
          let o = Sf_distributed.partition ~engine ~jobs ~t:4 g in
          let q = o.Sf_distributed.partition in
          ( Cluster_programs.sum_to_roots ~engine ~jobs g part ~values,
            Cluster_programs.min_boundary_edges ~engine ~jobs g part,
            Cluster_programs.broadcast_from_roots ~engine ~jobs g part
              ~values:per_cluster,
            (q.Partition.cluster_of, q.parent, q.parent_eid, q.roots),
            (o.real_rounds, o.messages, o.waves) )))

(* A run nested inside another's round, on the same domain, must not
   share the outer run's message plane: node 0 floods the whole graph in
   a nested run each round while the outer flood is in flight. *)
let nested_runs_agree () =
  let g = Generators.cycle 30 in
  let nested =
    {
      Network.init = (fun _ _ -> -1);
      round =
        (fun g ~round ~me st mb ->
          let inner =
            if me = 0 then fst (Network.run g (flood_program (round mod 30)))
            else [||]
          in
          let outer = (flood_program 0).Network.round g ~round ~me st mb in
          let sum = Array.fold_left ( + ) 0 inner in
          { outer with Network.state = outer.Network.state + sum });
    }
  in
  Alcotest.(check bool) "nested parity" true
    (fast_matches_ref (fun engine jobs -> Network.run ~engine ~jobs g nested))

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
    cluster_waves_agree;
    case "nested runs keep their own plane" nested_runs_agree;
  ]
