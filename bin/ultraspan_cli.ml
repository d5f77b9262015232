(* ultraspan command-line interface.

   dune exec bin/ultraspan_cli.exe -- generate --family grid -n 100 -o g.txt
   dune exec bin/ultraspan_cli.exe -- spanner --algo ultra -t 4 -i g.txt
   dune exec bin/ultraspan_cli.exe -- certificate --algo packing -k 3 -i g.txt
   dune exec bin/ultraspan_cli.exe -- resilience --algo thurimella -k 3 --family harary --degree 3 -n 60
   dune exec bin/ultraspan_cli.exe -- resilience --spanner bs -k 3 --failures 2 -i g.txt
   dune exec bin/ultraspan_cli.exe -- stats -i g.txt *)

open Ultraspan
open Cmdliner

(* ---------- shared arguments ---------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input graph (edge list; see Graph_io).")

let family_arg =
  Arg.(
    value
    & opt string "gnp"
    & info [ "family" ] ~docv:"FAM"
        ~doc:
          "Graph family: gnp | geometric | grid | torus | hypercube | harary \
           | path | cycle | preferential.")

let n_arg =
  Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")

let degree_arg =
  Arg.(
    value & opt float 8.0
    & info [ "degree" ] ~docv:"D" ~doc:"Average degree (gnp/preferential).")

let weights_arg =
  Arg.(
    value & opt int 1
    & info [ "max-weight" ] ~docv:"W"
        ~doc:"Randomize integer weights in [1, W] (1 = unweighted).")

let k_arg doc = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc)

let t_arg =
  Arg.(value & opt int 4 & info [ "t" ] ~docv:"T" ~doc:"Sparsity parameter t.")

let eps_arg =
  Arg.(value & opt float 0.5 & info [ "epsilon" ] ~docv:"EPS" ~doc:"Epsilon.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write result to FILE.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("fast", `Fast); ("ref", `Ref) ]) `Fast
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "CONGEST simulator message plane: fast (CSR slot-based, rounds \
           sharded over the domain pool; the default) or ref (list-based \
           reference oracle).  Both are observably identical at every job \
           count; the flag exists for differential and A/B perf runs.")

let verify_mode_enum =
  Arg.enum
    [ ("local", Verify.Local); ("exact", Verify.Exact); ("probe", Verify.Probe) ]

let verify_arg =
  Arg.(
    value
    & opt (some verify_mode_enum) None
    & info [ "verify" ] ~docv:"MODE"
        ~doc:
          "Verify the produced artifact before exiting: local (build \
           per-node witnesses and run the O(k)-round CONGEST checker \
           programs on the simulator), exact (the centralized ground-truth \
           checkers), or probe (the sublinear eps-far connectivity \
           spot-check).  Exit 1 if the artifact is rejected.")

(* Shared tail of every --verify run: print the canonical verdict line,
   exit 1 on rejection (after [k] so metrics snapshots still flush). *)
let report_verdict v =
  Format.printf "verify          : %a@." Verify.pp_verdict v;
  v.Verify.ok

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write an ultraspan-metrics/1 JSON snapshot of the run's metrics \
           registry to $(docv).  The snapshot is flushed (flagged partial) \
           even when the run aborts, e.g. on a round-limit overrun.")

(* Run [f] against a metrics registry: a live one wired into the global
   Parallel instrumentation when --metrics FILE was given, the shared
   no-op sink otherwise.  The snapshot is saved even when [f] raises —
   flagged partial — so an aborted run keeps its counters, then the
   exception propagates. *)
let with_metrics file f =
  match file with
  | None -> f Metrics.disabled
  | Some path ->
      let reg = Metrics.create () in
      Parallel.set_metrics (Some reg);
      let save () =
        Parallel.set_metrics None;
        Metrics_io.save_registry path reg;
        Printf.printf "wrote metrics snapshot to %s\n%!" path
      in
      (match f reg with
      | r ->
          save ();
          r
      | exception e ->
          Metrics.mark_partial reg;
          save ();
          raise e)

let make_graph family n degree max_w seed =
  let rng = Rng.create seed in
  let g =
    match family with
    | "gnp" -> Generators.connected_gnp ~rng ~n ~avg_degree:degree
    | "geometric" ->
        Generators.ensure_connected ~rng
          (Generators.random_geometric ~rng ~n
             ~radius:(sqrt (degree /. (3.14 *. float_of_int n))))
    | "grid" ->
        let s = int_of_float (sqrt (float_of_int n)) in
        Generators.grid s s
    | "torus" ->
        let s = max 3 (int_of_float (sqrt (float_of_int n))) in
        Generators.torus s s
    | "hypercube" ->
        Generators.hypercube
          (int_of_float (Float.log2 (float_of_int (max 2 n))))
    | "harary" -> Generators.harary ~k:(int_of_float degree) ~n
    | "path" -> Generators.path n
    | "cycle" -> Generators.cycle n
    | "preferential" ->
        Generators.preferential_attachment ~rng ~n
          ~degree:(max 1 (int_of_float degree))
    | f -> failwith ("unknown family: " ^ f)
  in
  if max_w > 1 then Generators.randomize_weights ~rng ~lo:1 ~hi:max_w g else g

let load_graph input family n degree max_w seed =
  match input with
  | Some path -> Graph_io.load path
  | None -> make_graph family n degree max_w seed

(* ---------- generate ---------- *)

let generate family n degree max_w seed output =
  let g = make_graph family n degree max_w seed in
  (match output with
  | Some path -> Graph_io.save path g
  | None -> print_string (Graph_io.to_string g));
  Format.eprintf "generated %a@." Graph.pp g

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a graph and print/save it.")
    Term.(
      const generate $ family_arg $ n_arg $ degree_arg $ weights_arg $ seed_arg
      $ output_arg)

(* ---------- stats ---------- *)

let stats input family n degree max_w seed =
  let g = load_graph input family n degree max_w seed in
  Format.printf "%a@." Graph.pp g;
  Printf.printf "max degree      : %d\n" (Graph.max_degree g);
  let _, comps = Connectivity.components g in
  Printf.printf "components      : %d\n" comps;
  if Graph.n g <= 2000 then begin
    Printf.printf "hop diameter    : %d\n" (Bfs.diameter_hops g)
  end;
  if Graph.n g <= 500 then
    Printf.printf "edge connectivity: %d\n" (Maxflow.edge_connectivity g)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print basic statistics of a graph.")
    Term.(
      const stats $ input_arg $ family_arg $ n_arg $ degree_arg $ weights_arg
      $ seed_arg)

(* ---------- shared algorithm dispatch ---------- *)

let build_spanner ?(engine = `Fast) ?jobs ?metrics ~algo ~k ~t ~seed g =
  match algo with
  | "bs" -> (Baswana_sen.run ~rng:(Rng.create seed) ~k g).Baswana_sen.spanner
  | "bs-distributed" ->
      (Bs_distributed.run ?metrics ~engine ?jobs ~seed ~k g)
        .Bs_distributed.spanner
  | "bs-derand" -> (Bs_derand.run ~k g).Bs_derand.spanner
  | "linear" -> (Linear_size.run g).Linear_size.spanner
  | "linear-random" ->
      (Linear_size.run ~variant:(Linear_size.Randomized (Rng.create seed)) g)
        .Linear_size.spanner
  | "ultra" -> (Ultra_sparse.run ~t g).Ultra_sparse.spanner
  | "greedy" -> Greedy.run ~k g
  | "en" -> (Elkin_neiman.run ~rng:(Rng.create seed) ~k g).Elkin_neiman.spanner
  | "clustering" -> (Clustering_spanner.sparse g).Clustering_spanner.spanner
  | "clustering-ultra" ->
      (Clustering_spanner.ultra_sparse ~t g).Clustering_spanner.spanner
  | a -> failwith ("unknown algorithm: " ^ a)

let build_certificate ~algo ~k ~eps ~seed g =
  match algo with
  | "ni" -> Nagamochi_ibaraki.certificate ~k g
  | "thurimella" -> Thurimella.certificate ~k g
  | "packing" ->
      (Spanner_packing.run ~k ~epsilon:eps g).Spanner_packing.certificate
  | "kecss" -> (Kecss.approximate ~epsilon:eps ~k g).Kecss.certificate
  | "karger" ->
      (Karger_split.run ~rng:(Rng.create seed) ~k ~epsilon:eps g)
        .Karger_split.certificate
  | a -> failwith ("unknown algorithm: " ^ a)

(* ---------- spanner ---------- *)

let spanner algo k t engine breakdown jobs verify mfile input family n
    degree max_w seed output =
  let g = load_graph input family n degree max_w seed in
  Format.printf "input: %a@." Graph.pp g;
  let ok =
    with_metrics mfile @@ fun metrics ->
    let sp = build_spanner ~engine ~jobs ~metrics ~algo ~k ~t ~seed g in
    Printf.printf "spanner edges   : %d (%.2f per vertex)\n" (Spanner.size sp)
      (float_of_int (Spanner.size sp) /. float_of_int (Graph.n g));
    Printf.printf "spanning        : %b\n" (Spanner.is_spanning g sp);
    if Graph.n g <= 4096 then
      Printf.printf "exact stretch   : %.2f\n"
        (Stretch.max_edge_stretch ~jobs g sp.Spanner.keep);
    Printf.printf "simulated rounds: %d\n" (Spanner.total_rounds sp);
    if breakdown then
      Format.printf "round breakdown : %a@." Rounds.pp sp.Spanner.rounds;
    (match output with
    | None -> ()
    | Some path ->
        Graph_io.save path (Graph.sub_by_eids g sp.Spanner.keep);
        Printf.printf "wrote spanner to %s\n" path);
    match verify with
    | None -> true
    | Some mode ->
        (* the (2k-1) bound comes from --k, whatever --algo built *)
        report_verdict
          (Verify.spanner ~engine ~jobs ~seed ~mode ~k g sp)
  in
  if not ok then exit 1

let spanner_algo_arg =
  Arg.(
    value & opt string "ultra"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "bs | bs-distributed | bs-derand | linear | linear-random | ultra \
           | greedy | en | clustering | clustering-ultra.")

let breakdown_arg =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:
          "Print the hierarchical round-accounting tree (algorithm -> phase \
           -> step spans).")

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the parallel kernels (stretch verification, and the \
           CONGEST simulator's sharded rounds where the command runs the \
           simulator) over $(docv) domains (default ULTRASPAN_JOBS or 1).  \
           The result is identical for every N.")

let spanner_cmd =
  Cmd.v
    (Cmd.info "spanner" ~doc:"Compute a spanner and report its guarantees.")
    Term.(
      const spanner $ spanner_algo_arg
      $ k_arg "Stretch parameter k (stretch 2k-1)."
      $ t_arg $ engine_arg $ breakdown_arg $ jobs_arg
      $ verify_arg $ metrics_arg
      $ input_arg $ family_arg $ n_arg $ degree_arg $ weights_arg $ seed_arg
      $ output_arg)

(* ---------- certificate ---------- *)

let certificate algo k eps input family n degree max_w seed output =
  let g = load_graph input family n degree max_w seed in
  Format.printf "input: %a@." Graph.pp g;
  let c = build_certificate ~algo ~k ~eps ~seed g in
  Printf.printf "certificate edges: %d (%.2f x kn)\n" (Certificate.size c)
    (float_of_int (Certificate.size c) /. float_of_int (k * Graph.n g));
  if Graph.n g <= 500 then begin
    let lg, lh = Certificate.preserved_connectivity g c in
    Printf.printf "connectivity     : G %d -> H %d (capped at k+1)\n" lg lh;
    Printf.printf "valid certificate: %b\n" (Certificate.is_certificate g c)
  end;
  Printf.printf "simulated rounds : %d\n" (Ultraspan.Rounds.total c.Certificate.rounds);
  match output with
  | None -> ()
  | Some path ->
      Graph_io.save path (Certificate.subgraph g c);
      Printf.printf "wrote certificate to %s\n" path

let cert_algo_arg =
  Arg.(
    value & opt string "packing"
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"ni | thurimella | packing | kecss | karger.")

let certificate_cmd =
  Cmd.v
    (Cmd.info "certificate" ~doc:"Compute a k-connectivity certificate.")
    Term.(
      const certificate $ cert_algo_arg $ k_arg "Connectivity parameter k."
      $ eps_arg $ input_arg $ family_arg $ n_arg $ degree_arg $ weights_arg
      $ seed_arg $ output_arg)

(* ---------- resilience ---------- *)

(* Domain validation for user-supplied parameters: a one-line [Failure]
   (caught in [main] below) instead of a backtrace from deep inside a
   library. *)
let validate_k who k =
  if k < 1 then failwith (Printf.sprintf "%s: k must be >= 1 (got %d)" who k)

let resilience algo spanner_algo k t eps budget trials failures verify input
    family n degree max_w seed =
  validate_k "resilience" k;
  if budget < 1 then
    failwith (Printf.sprintf "resilience: budget must be >= 1 (got %d)" budget);
  if trials < 0 then
    failwith (Printf.sprintf "resilience: trials must be >= 0 (got %d)" trials);
  (match failures with
  | Some f when f < 0 ->
      failwith (Printf.sprintf "resilience: failures must be >= 0 (got %d)" f)
  | _ -> ());
  let g = load_graph input family n degree max_w seed in
  Format.printf "input: %a@." Graph.pp g;
  match spanner_algo with
  | Some salgo ->
      let sp = build_spanner ~algo:salgo ~k ~t ~seed g in
      let failures = match failures with Some f -> f | None -> max 1 (k - 1) in
      Printf.printf "spanner %s: %d edges\n" salgo (Spanner.size sp);
      let r =
        Resilience.check_spanner ~rng:(Rng.create seed) ~trials ~failures g
          sp.Spanner.keep
      in
      Format.printf "%a@." Resilience.pp_spanner_report r;
      (match verify with
      | None -> ()
      | Some mode ->
          if not (report_verdict (Verify.spanner ~seed ~mode ~k g sp)) then
            exit 1)
  | None ->
      let c = build_certificate ~algo ~k ~eps ~seed g in
      Printf.printf "certificate %s: %d edges (k = %d)\n" algo
        (Certificate.size c) k;
      let r = Resilience.check_certificate ~rng:(Rng.create seed) ~budget g c in
      Format.printf "%a@." Resilience.pp_cert_report r;
      Printf.printf "resilient        : %b\n" (r.Resilience.violations = 0);
      let verified =
        match verify with
        | None -> true
        | Some mode -> report_verdict (Verify.certificate ~seed ~mode g c)
      in
      if r.Resilience.violations > 0 || not verified then exit 1

let spanner_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spanner" ] ~docv:"ALGO"
        ~doc:
          "Measure stretch degradation of this spanner algorithm under edge \
           deletions instead of checking a certificate.")

let budget_arg =
  Arg.(
    value & opt int 2000
    & info [ "budget" ] ~docv:"B"
        ~doc:
          "Failure-set budget: enumerate exhaustively when the count of \
           sets with at most k-1 edges fits, sample B sets otherwise.")

let trials_arg =
  Arg.(
    value & opt int 32
    & info [ "trials" ] ~docv:"T" ~doc:"Trials for spanner degradation.")

let failures_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "failures" ] ~docv:"F"
        ~doc:"Edges removed per spanner trial (default k-1).")

let resilience_cmd =
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Evaluate a certificate (or, with --spanner, a spanner) under edge \
          failures: a k-connectivity certificate must preserve the \
          components of G - F for every failure set with at most k-1 \
          edges.  Exits non-zero if a violation is found.")
    Term.(
      const resilience $ cert_algo_arg $ spanner_opt_arg
      $ k_arg "Connectivity / stretch parameter k."
      $ t_arg $ eps_arg $ budget_arg $ trials_arg $ failures_arg $ verify_arg
      $ input_arg $ family_arg $ n_arg $ degree_arg $ weights_arg $ seed_arg)

(* ---------- stream ---------- *)

let stream replay emit batches ops insert_frac from_faults mode cert cert_k k
    jobs verify mfile input family n degree max_w seed output =
  validate_k "stream" k;
  if jobs < 1 then
    failwith (Printf.sprintf "stream: jobs must be >= 1 (got %d)" jobs);
  let g = load_graph input family n degree max_w seed in
  let make_stream () =
    let rng = Rng.create seed in
    let s =
      if from_faults > 0 then
        Update_stream.of_faults g
          (Faults.random_link_failures ~rng g ~within:(max 0 (batches - 1))
             ~count:from_faults Faults.empty)
      else Update_stream.generate ~rng ~batches ~ops ~insert_frac g
    in
    { s with Update_stream.seed }
  in
  match (replay, emit) with
  | None, false | Some _, true ->
      failwith "stream: pass exactly one of --emit or --replay FILE"
  | None, true ->
      with_metrics mfile @@ fun _metrics ->
      let s = make_stream () in
      (match output with
      | Some path ->
          Update_stream.save path s;
          (* the artifact path goes to stdout, like every other writer *)
          Format.printf "wrote %a to %s@." Update_stream.pp s path
      | None -> print_string (Update_stream.to_string s))
  | Some path, false ->
      let s = if path = "-" then make_stream () else Update_stream.load path in
      Format.printf "input: %a@." Graph.pp g;
      Format.printf "stream: %a@." Update_stream.pp s;
      (* --verify picks the per-batch recertification mode of the engine *)
      let recert =
        match verify with
        | Some Verify.Local -> `Local
        | Some Verify.Probe -> `Probe
        | None | Some Verify.Exact -> `Exact
      in
      let cfg =
        {
          (Repair.defaults ~k) with
          Repair.mode;
          cert = Option.map (fun algo -> (algo, cert_k)) cert;
          jobs;
          recert;
        }
      in
      (match cfg.Repair.cert with
      | Some (_, ck) when ck < 1 ->
          failwith (Printf.sprintf "stream: cert-k must be >= 1 (got %d)" ck)
      | _ -> ());
      let failed =
        with_metrics mfile @@ fun metrics ->
      let eng = Repair.create ~metrics cfg g in
      Printf.printf "initial: %d spanner edges (stretch bound %d)%s\n"
        (Repair.spanner_size eng)
        ((2 * k) - 1)
        (if cfg.Repair.cert = None then ""
         else Printf.sprintf ", %d certificate edges" (Repair.certificate_size eng));
      let failures = ref 0 in
      List.iteri
        (fun i b ->
          let o = Repair.apply_batch eng b in
          let v = Repair.recertify ~rng:(Rng.create seed) eng in
          let ok =
            v.Repair.stretch_ok && v.Repair.spanning
            && v.Repair.cert_ok <> Some false
          in
          if not ok then incr failures;
          Format.printf "%a | %a@." Repair.pp_outcome o Repair.pp_verdicts v;
          ignore i)
        s.Update_stream.batches;
      Printf.printf "final: %d edges, %d spanner edges, recertified %d/%d batches\n"
        (Graph.m (Repair.graph eng))
        (Repair.spanner_size eng)
        (List.length s.Update_stream.batches - !failures)
        (List.length s.Update_stream.batches);
      !failures
      in
      (* exit after with_metrics has flushed the snapshot *)
      if failed > 0 then exit 1

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay stream $(docv) through the repair engine against the \
           input graph, recertifying after every batch ($(b,-) generates \
           the stream in-process from --seed instead of reading a file).")

let emit_arg =
  Arg.(
    value & flag
    & info [ "emit" ]
        ~doc:"Generate a seeded stream and print it (or save with -o).")

let batches_arg =
  Arg.(
    value & opt int 8
    & info [ "batches" ] ~docv:"B" ~doc:"Batches to generate (--emit).")

let ops_arg =
  Arg.(
    value & opt int 16
    & info [ "ops" ] ~docv:"O" ~doc:"Ops per generated batch (--emit).")

let insert_frac_arg =
  Arg.(
    value & opt float 0.5
    & info [ "insert-frac" ] ~docv:"F"
        ~doc:"Fraction of insertions among generated ops (in [0, 1]).")

let from_faults_arg =
  Arg.(
    value & opt int 0
    & info [ "from-faults" ] ~docv:"L"
        ~doc:
          "Derive the stream from a random fault plan with $(docv) link \
           failures (PR 1 semantics: a link failure is an edge deletion) \
           instead of the insert/delete generator.")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("repair", `Incremental); ("rebuild", `Rebuild) ]) `Incremental
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Maintenance mode: incremental repair (default) or from-scratch \
           rebuild every batch (the differential baseline).")

let cert_opt_arg =
  Arg.(
    value
    & opt
        (some (enum [ ("thurimella", Repair.Thurimella); ("kecss", Repair.Kecss) ]))
        None
    & info [ "cert" ] ~docv:"ALGO"
        ~doc:
          "Also maintain a connectivity certificate (thurimella | kecss) \
           with lazy recertification.")

let cert_k_arg =
  Arg.(
    value & opt int 2
    & info [ "cert-k" ] ~docv:"CK"
        ~doc:"Connectivity certified by --cert (default 2).")

let stream_cmd =
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Batched edge-update streams (ultraspan-stream/1): generate or \
          fault-derive one with --emit, or --replay one through the \
          incremental spanner-repair engine, recertifying the spanner (and \
          optional certificate) after every batch with the ground-truth \
          checkers.  Exits non-zero if any post-batch state fails \
          recertification.")
    Term.(
      const stream $ replay_arg $ emit_arg $ batches_arg $ ops_arg
      $ insert_frac_arg $ from_faults_arg $ mode_arg $ cert_opt_arg
      $ cert_k_arg
      $ k_arg "Stretch parameter k (stretch 2k-1)."
      $ jobs_arg $ verify_arg $ metrics_arg $ input_arg $ family_arg $ n_arg
      $ degree_arg $ weights_arg $ seed_arg $ output_arg)

(* ---------- verify ---------- *)

let verify_matrix engine jobs quick seed =
  let ok = Verify.matrix ~engine ~jobs ~seed ~quick Format.std_formatter in
  if not ok then exit 1

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Small graphs (the CI verify job's per-configuration setting).")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the corruption-detection matrix of the verification plane: \
          build valid spanners and connectivity certificates, check the \
          CONGEST checker programs accept them, then apply seeded \
          corruptions (dropped spanner edges, truncated / detached / \
          erased detours, dropped forest arcs, flipped forest labels, \
          corrupted depth and root labels) and check every one is \
          rejected, plus eps-far probe controls.  The transcript is \
          canonical: byte-identical across --engine and -j (CI diffs \
          it with cmp).  Exits non-zero on any miss.")
    Term.(
      const verify_matrix $ engine_arg $ jobs_arg $ quick_arg
      $ seed_arg)

(* ---------- trace ---------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace prog k root engine drop crashes top mfile input family n
    degree max_w seed output =
  let g = load_graph input family n degree max_w seed in
  Format.printf "input: %a@." Graph.pp g;
  let plan =
    let p = Faults.empty in
    let p = if drop > 0.0 then Faults.with_drops ~seed drop p else p in
    if crashes > 0 then
      Faults.random_crashes ~rng:(Rng.create seed) ~n:(Graph.n g) ~within:4
        ~count:crashes p
    else p
  in
  let faulty = plan <> Faults.empty in
  let faults = if faulty then Some (Faults.make plan) else None in
  if faulty then Format.printf "fault plan: %a@." Faults.pp plan;
  let tr = Trace.create g in
  let prof = Profile.create () in
  with_metrics mfile @@ fun metrics ->
  let stats =
    Profile.time prof prog @@ fun () ->
    match prog with
    | "bfs" ->
        snd (Programs.bfs ?faults ~trace:tr ~metrics ~engine g ~root)
    | "broadcast" ->
        snd
          (Programs.broadcast_max ?faults ~trace:tr ~metrics ~engine g
             ~values:(Array.init (Graph.n g) Fun.id))
    | p when faulty ->
        failwith
          (Printf.sprintf
             "program %s does not take a fault plan (only bfs | broadcast)" p)
    | "matching" ->
        snd (Programs.maximal_matching ~trace:tr ~metrics ~engine g)
    | "mis" -> snd (Programs.luby_mis ~trace:tr ~metrics ~engine ~seed g)
    | "bellman-ford" ->
        snd
          (Programs.bellman_ford ~trace:tr ~metrics ~engine g
             ~source:root)
    | "forest" ->
        snd (Programs.spanning_forest ~trace:tr ~metrics ~engine g)
    | "bs" ->
        (Bs_distributed.run ~trace:tr ~metrics ~engine ~seed ~k g)
          .Bs_distributed.network_stats
    | p -> failwith ("unknown program: " ^ p)
  in
  Printf.printf "rounds          : %d\n" stats.Network.rounds;
  Printf.printf "messages        : %d\n" stats.Network.messages;
  if stats.Network.drops > 0 then
    Printf.printf "dropped         : %d\n" stats.Network.drops;
  Format.printf "%a@?" (Trace.pp_summary ~top) tr;
  (* phase wall-clock flows into both exports: the metrics snapshot (as
     timing.profile.* timers) and the Chrome trace (as span events) *)
  Profile.export prof metrics;
  let prefix = match output with Some p -> p | None -> "trace" in
  write_file (prefix ^ ".jsonl") (Trace.to_jsonl tr);
  write_file (prefix ^ ".trace.json")
    (Trace.to_chrome ~extra_events:(Profile.chrome_events prof) tr);
  Printf.printf "wrote %s.jsonl (one record per line) and %s.trace.json \
                 (Chrome trace-event JSON, loadable in Perfetto)\n"
    prefix prefix

let trace_program_arg =
  Arg.(
    value & opt string "bfs"
    & info [ "program" ] ~docv:"PROG"
        ~doc:
          "Traced protocol: bfs | broadcast | matching | mis | bellman-ford \
           | forest | bs (distributed Baswana-Sen).")

let root_arg =
  Arg.(
    value & opt int 0
    & info [ "root" ] ~docv:"V" ~doc:"Root / source vertex (bfs, bellman-ford).")

let drop_arg =
  Arg.(
    value & opt float 0.0
    & info [ "drop-prob" ] ~docv:"P"
        ~doc:"Message drop probability (bfs/broadcast only).")

let crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "crashes" ] ~docv:"C"
        ~doc:"Crash-stop failures within the first rounds (bfs/broadcast only).")

let top_arg =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"K" ~doc:"Congested edges to list in the summary.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a native CONGEST protocol with a trace sink attached and \
          export the per-round/per-node/per-edge records as JSONL plus \
          Chrome trace-event JSON (with -o PREFIX, to PREFIX.jsonl and \
          PREFIX.trace.json).")
    Term.(
      const trace $ trace_program_arg
      $ k_arg "Stretch parameter k (program bs)."
      $ root_arg $ engine_arg $ drop_arg $ crashes_arg $ top_arg
      $ metrics_arg
      $ input_arg $ family_arg $ n_arg $ degree_arg $ weights_arg $ seed_arg
      $ output_arg)

(* ---------- metrics ---------- *)

let metrics_report file expose strip top =
  if top < 1 then
    failwith (Printf.sprintf "metrics: top must be >= 1 (got %d)" top);
  let s =
    try Metrics_io.load file
    with Exp_json.Error msg ->
      failwith (Printf.sprintf "%s: not an %s artifact (%s)" file
                  Metrics_io.schema msg)
  in
  let s = if strip then Metrics.strip_timing s else s in
  if expose then print_string (Metrics.exposition s)
  else begin
    Printf.printf "%s (%s)\n" file Metrics_io.schema;
    Format.printf "%a@?" (Metrics.pp_report ~top) s
  end

let metrics_file_pos_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"ultraspan-metrics/1 snapshot (written by --metrics FILE).")

let expose_arg =
  Arg.(
    value & flag
    & info [ "expose" ]
        ~doc:
          "Print the Prometheus-style text exposition instead of the human \
           report (deterministic byte-for-byte; what the check.sh / CI \
           determinism gates diff).")

let strip_timing_arg =
  Arg.(
    value & flag
    & info [ "strip-timing" ]
        ~doc:
          "Drop the timing.* execution namespace (wall-clock timers and \
           engine-/schedule-internal diagnostics) first; what remains must \
           be byte-identical across --jobs and --engine.")

let report_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"Counters to list per section.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Render an ultraspan-metrics/1 snapshot: top-k counters (split \
          deterministic vs execution namespace), gauges, histogram \
          sparklines and per-phase timers with GC quick_stat deltas — or, \
          with --expose, a Prometheus-style text exposition.")
    Term.(
      const metrics_report $ metrics_file_pos_arg $ expose_arg
      $ strip_timing_arg $ report_top_arg)

(* ---------- report ---------- *)

let report dir full =
  let module T = Exp_table in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "%s: not a directory (run bench/main.exe first)" dir);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then failwith (Printf.sprintf "%s: no .json artifacts" dir);
  let checked = ref 0 and violated = ref 0 and bad = ref 0 in
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      match T.load path with
      | exception (Exp_json.Error msg | Failure msg | Sys_error msg) ->
          incr bad;
          Printf.printf "%-14s UNREADABLE (%s)\n" f msg
      | tbl ->
          let vs = T.violations tbl in
          checked := !checked + T.bounds_checked tbl;
          violated := !violated + List.length vs;
          let title =
            match String.index_opt tbl.T.title '\n' with
            | None -> tbl.T.title
            | Some i -> String.sub tbl.T.title 0 i ^ " ..."
          in
          Printf.printf "%-6s %-52s %3d bound(s)  %s\n" tbl.T.id title
            (T.bounds_checked tbl)
            (if vs = [] then "ok" else Printf.sprintf "%d VIOLATED" (List.length vs));
          List.iter
            (fun (sid, label, (b : T.bound)) ->
              Printf.printf "       violation %s[%s] %s: observed %g, limit %g%s\n"
                sid label b.T.bid b.T.observed b.T.limit
                (if b.T.descr = "" then "" else " — " ^ b.T.descr))
            vs;
          if full then begin
            print_newline ();
            T.print tbl
          end)
    files;
  Printf.printf "%d artifact(s), %d bound(s) checked, %d violated%s\n"
    (List.length files) !checked !violated
    (if !bad > 0 then Printf.sprintf ", %d unreadable" !bad else "");
  if !violated > 0 || !bad > 0 then exit 1

let report_dir_arg =
  Arg.(
    value & pos 0 string "artifacts"
    & info [] ~docv:"DIR" ~doc:"Artifact directory (default: artifacts).")

let report_full_arg =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Also render each table's full text layout.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize JSON table artifacts written by bench/main.exe: per \
          table, the declared paper bounds and any violations.  Exits \
          non-zero if an artifact is unreadable or a bound is violated.")
    Term.(const report $ report_dir_arg $ report_full_arg)

(* ---------- compile / query (distance-oracle serving layer) ---------- *)

let compile algo k t jobs mfile input family n degree max_w seed output =
  let g = load_graph input family n degree max_w seed in
  Format.printf "input: %a@." Graph.pp g;
  with_metrics mfile @@ fun metrics ->
  let sp = build_spanner ~jobs ~metrics ~algo ~k ~t ~seed g in
  let o = Oracle.compile g ~k sp in
  Format.printf "%a@." Oracle.pp o;
  Printf.printf "checksum        : %016Lx\n" (Oracle.checksum o);
  let bytes = Oracle.save output o in
  Printf.printf "wrote %s (%d bytes, %s)\n" output bytes Oracle.schema

let oracle_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the compiled ultraspan-oracle/2 artifact to $(docv).")

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Build a spanner and compile it into a servable ultraspan-oracle/2 \
          binary artifact: CSR adjacency of the kept subgraph plus \
          per-vertex cluster labels, checksummed.  The artifact is what the \
          query subcommand serves from — the spanner is never rebuilt at \
          query time.")
    Term.(
      const compile $ spanner_algo_arg
      $ k_arg "Stretch parameter k (stretch 2k-1)."
      $ t_arg $ jobs_arg $ metrics_arg $ input_arg $ family_arg $ n_arg
      $ degree_arg $ weights_arg $ seed_arg $ oracle_out_arg)

let query oracle_path qfile random emitq jobs verify mfile input family n
    degree max_w seed output =
  let o = Oracle.load oracle_path in
  Format.printf "%a@." Oracle.pp o;
  let qs =
    match (qfile, random) with
    | Some f, _ -> Query_engine.load_queries f
    | None, r when r > 0 ->
        Query_engine.generate ~rng:(Rng.create seed) ~n:(Oracle.n o) ~count:r
    | None, _ -> failwith "query: give --queries FILE or --random COUNT"
  in
  (match emitq with
  | Some f ->
      Query_engine.save_queries f qs;
      Printf.printf "wrote %d queries to %s (%s)\n" (Array.length qs) f
        Query_engine.queries_schema
  | None -> ());
  let ok =
    with_metrics mfile @@ fun metrics ->
    let answers, st = Query_engine.run ~jobs ~metrics o qs in
    Printf.printf "queries         : %d (%d dist, %d mem, %d unreachable)\n"
      st.Query_engine.queries st.Query_engine.dist st.Query_engine.mem
      st.Query_engine.unreachable;
    (match output with
    | Some path ->
        Query_engine.save_results path qs answers;
        Printf.printf "wrote results to %s (%s)\n" path
          Query_engine.results_schema
    | None -> print_string (Query_engine.render_results qs answers));
    match verify with
    | None -> true
    | Some mode ->
        (* the original graph comes from the shared graph arguments; the
           spanner itself is reconstructed from the artifact's edge ids,
           so no --algo replay is needed *)
        let g = load_graph input family n degree max_w seed in
        if Graph.m g <> o.Oracle.orig_m then
          failwith
            (Printf.sprintf
               "%s was compiled against a graph with %d edges, but the given \
                graph has %d (pass the compile-time graph arguments)"
               oracle_path o.Oracle.orig_m (Graph.m g));
        let eids = ref [] in
        for e = Oracle.m o - 1 downto 0 do
          eids := o.Oracle.orig_eid.{e} :: !eids
        done;
        let sp = Spanner.of_eids g !eids in
        let verdict_ok =
          report_verdict
            (Verify.spanner ~jobs ~seed ~mode ~k:o.Oracle.k g sp)
        in
        (match
           Query_engine.spot_check ~rng:(Rng.create seed) g o qs answers
         with
        | Ok c ->
            Printf.printf
              "spot-check      : %d sampled answer(s) within (2k-1) bounds\n" c;
            verdict_ok
        | Error m ->
            Printf.printf "spot-check      : FAILED (%s)\n" m;
            false)
  in
  if not ok then exit 1

let oracle_pos_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ORACLE"
        ~doc:"Compiled ultraspan-oracle/2 artifact (from the compile \
              subcommand).")

let queries_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:"Batch query file (ultraspan-queries/1 text format).")

let random_arg =
  Arg.(
    value & opt int 0
    & info [ "random" ] ~docv:"COUNT"
        ~doc:
          "Generate a seeded mixed workload of $(docv) queries (hot-skewed \
           distance queries plus membership queries) instead of reading \
           --queries.")

let emit_queries_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-queries" ] ~docv:"FILE"
        ~doc:"Also write the executed query batch to $(docv).")

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Serve a batch of s-t approximate-distance and edge-membership \
          queries from a compiled oracle artifact.  Batches fan out over \
          the domain pool with a fixed chunk schedule, so the result file \
          is byte-identical for every -j.  With --verify local, rebuild \
          the spanner's per-node witnesses on the original graph, run the \
          CONGEST checker programs, and spot-check sampled answers \
          against exact distances and the (2k-1) stretch contract.")
    Term.(
      const query $ oracle_pos_arg $ queries_arg $ random_arg
      $ emit_queries_arg $ jobs_arg $ verify_arg $ metrics_arg $ input_arg
      $ family_arg $ n_arg $ degree_arg $ weights_arg $ seed_arg $ output_arg)

(* ---------- main ---------- *)

let () =
  let info =
    Cmd.info "ultraspan" ~version:"1.0"
      ~doc:
        "Deterministic distributed sparse and ultra-sparse spanners and \
         connectivity certificates (SPAA 2022 reproduction)."
  in
  let group =
    Cmd.group info
      [
        generate_cmd; stats_cmd; spanner_cmd; certificate_cmd; resilience_cmd;
        stream_cmd; verify_cmd; trace_cmd; metrics_cmd; report_cmd;
        compile_cmd; query_cmd;
      ]
  in
  (* Domain errors (unknown algorithm/family/program, unreadable input,
     malformed stream/query/oracle files, truncated or corrupt JSON
     artifacts, out-of-range parameters) surface as
     Failure/Sys_error/Invalid_argument/Exp_json.Error; exit 1 cleanly
     instead of a crash with backtrace, and keep cmdliner's own exit codes
     for usage errors. *)
  exit
    (try Cmd.eval ~catch:false group with
    | Failure msg | Sys_error msg | Invalid_argument msg
    | Exp_json.Error msg ->
        Printf.eprintf "ultraspan: %s\n" msg;
        1)
