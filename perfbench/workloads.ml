(* The four benchmark workloads.

   Each workload's [setup] generates its inputs from the seed and builds
   the structures its timed loop needs; it returns a pool of units.  A
   unit is split in two: calling it runs the timed part (public library
   calls only) and returns a [finish] closure, run untimed, that checks
   the outputs and reports the unit's exact counts.  The counts of a pool
   entry must repeat every time that entry runs. *)

open Ultraspan

(* The traced run installs a profile (and a live registry, handed to every
   call that takes [?metrics]); untraced, [span] only calls [f].  Nested
   spans are recorded under "outer/inner" paths, and the layer of a span
   is the prefix of its label before the first '.'. *)
let profile : Profile.t option ref = ref None
let registry = ref Metrics.disabled

let span name f =
  match !profile with None -> f () | Some p -> Profile.time p name f

type result = {
  counts : (string * int) list;
      (** exact counts; names without a [digest.] prefix are summed into
          the per-layer metric of the same name *)
  out_edges : int;  (** edges of the spanner or certificate produced *)
  out_vertices : int;
  errors : string list;  (** cheap output checks that failed *)
  deep_check : unit -> string list;
      (** expensive output checks, run once per pool entry *)
}

type prepared = {
  units : (unit -> unit -> result) array;
  ops : int array;  (** workload ops in each unit, fixed by the input *)
  setup_counts : (string * int) list;
  fingerprint : unit -> string;  (** digest of the generated inputs *)
}

type spec = {
  name : string;
  traced_jobs : int;
      (** domain budget of the traced run, which reads the pool's layer
          metrics; never above [nproc].  Timed runs use one domain. *)
  setup : jobs:int -> seed:int -> prepared;
}

let nproc = Parallel.available_cores ()

(* ---------- helpers ---------- *)

(* Independent per-entry seeds drawn from the workload seed. *)
let seeds ~seed ~salt p =
  let rng = Rng.create ((seed * 7919) + salt) in
  Array.init p (fun _ -> Rng.bits rng)

let graph_digest g =
  let b = Buffer.create ((24 * Graph.m g) + 8) in
  let add x = Buffer.add_int64_le b (Int64.of_int x) in
  add (Graph.n g);
  Graph.iter_edges g (fun e ->
      let u, v = Graph.endpoints g e.Graph.id in
      add u;
      add v;
      add e.Graph.w);
  Digest.string (Buffer.contents b)

let digest_int s = Int64.to_int (String.get_int64_le (Digest.string s) 0)

let mask_digest keep =
  digest_int
    (String.init (Array.length keep) (fun i -> if keep.(i) then '1' else '0'))

let array_digest a =
  digest_int (String.concat "," (Array.to_list (Array.map string_of_int a)))

let check cond msg acc = if cond then acc else msg :: acc

let gen_sparse ~seed ~n ~degree =
  span "graph.generate" (fun () ->
      Generators.Streamed.graph
        (Generators.Streamed.degree_bounded ~seed ~n ~degree))

let gen_gnp ~seed ~n ~avg_degree =
  span "graph.generate" (fun () ->
      Generators.connected_gnp ~rng:(Rng.create seed) ~n ~avg_degree)

let total_m gs = Array.fold_left (fun a g -> a + Graph.m g) 0 gs

(* ---------- construct: the paper's centralized builds ---------- *)

let construct_pool = 32
let construct_n = 400
let construct_dense_n = 256
let construct_t = 4
let construct_ck = 2
let construct_k = 3

let construct_setup ~jobs:_ ~seed =
  let ss = seeds ~seed ~salt:1 construct_pool in
  let sparse =
    Array.map (fun s -> gen_sparse ~seed:s ~n:construct_n ~degree:8) ss
  in
  let dense =
    Array.map
      (fun s -> gen_gnp ~seed:(s + 1) ~n:construct_dense_n ~avg_degree:64.)
      ss
  in
  let epsilon = 1. /. float_of_int construct_t in
  let unit i () =
    let g = sparse.(i) and d = dense.(i) in
    let us =
      span "spanner.ultra_sparse" (fun () -> Ultra_sparse.run ~t:construct_t g)
    in
    let pk =
      span "certificate.spanner_packing" (fun () ->
          Spanner_packing.run ~k:construct_ck ~epsilon g)
    in
    let bd =
      span "spanner.bs_derand" (fun () -> Bs_derand.run ~k:construct_k d)
    in
    fun () ->
      let usp = us.Ultra_sparse.spanner and bsp = bd.Bs_derand.spanner in
      let cert = pk.Spanner_packing.certificate in
      let n = Graph.n g in
      {
        counts =
          [
            ("spanner.kept_edges", Spanner.size usp + Spanner.size bsp);
            ("spanner.ultra_sparse.attempts", us.Ultra_sparse.attempts);
            ( "spanner.rounds_accounted",
              Spanner.total_rounds usp + Spanner.total_rounds bsp
              + Rounds.total cert.Certificate.rounds );
            ("certificate.edges", Certificate.size cert);
            ("digest.ultra_sparse", mask_digest usp.Spanner.keep);
            ("digest.bs_derand", mask_digest bsp.Spanner.keep);
            ("digest.packing", mask_digest cert.Certificate.keep);
          ];
        out_edges = Spanner.size usp + Spanner.size bsp + Certificate.size cert;
        out_vertices = n + n + Graph.n d;
        errors = [];
        deep_check =
          (fun () ->
            []
            |> check
                 (Spanner.size usp <= Ultra_sparse.bound ~n ~t:construct_t)
                 "ultra_sparse: size above n + n/t"
            |> check (Spanner.is_spanning g usp) "ultra_sparse: not spanning"
            |> check
                 (Spanner.validate d bsp
                    ~alpha:(float_of_int ((2 * construct_k) - 1))
                 = Ok ())
                 "bs_derand: not a (2k-1)-spanner"
            |> check
                 (Certificate.is_certificate g cert)
                 "spanner_packing: not a connectivity certificate");
      }
  in
  {
    units = Array.init construct_pool unit;
    ops =
      Array.init construct_pool (fun i ->
          (2 * Graph.m sparse.(i)) + Graph.m dense.(i));
    setup_counts = [ ("graph.m", total_m sparse + total_m dense) ];
    fingerprint =
      (fun () ->
        String.concat ""
          (Array.to_list (Array.map graph_digest (Array.append sparse dense))));
  }

(* ---------- simulate: real CONGEST executions ---------- *)

let simulate_pool = 64
let simulate_n = 400
let simulate_degree = 16
let simulate_k = 4

let simulate_setup ~jobs ~seed =
  let ss = seeds ~seed ~salt:2 simulate_pool in
  let gs =
    Array.map
      (fun s -> gen_sparse ~seed:s ~n:simulate_n ~degree:simulate_degree)
      ss
  in
  let certs =
    Array.map
      (fun g ->
        span "certificate.thurimella" (fun () -> Thurimella.certificate ~k:2 g))
      gs
  in
  let unit i () =
    let g = gs.(i) and metrics = !registry in
    let bs =
      span "congest.bs_distributed" (fun () ->
          Bs_distributed.run ~metrics ~jobs ~seed:ss.(i) ~k:simulate_k g)
    in
    let forest, fstat =
      span "congest.spanning_forest" (fun () ->
          Programs.spanning_forest ~metrics ~jobs g)
    in
    let bfs, bst =
      span "congest.bfs" (fun () -> Programs.bfs ~metrics ~jobs g ~root:0)
    in
    let v =
      span "verify.certificate_local" (fun () ->
          Verify.certificate ~jobs ~mode:Verify.Local g certs.(i))
    in
    fun () ->
      let sp = bs.Bs_distributed.spanner
      and bst0 = bs.Bs_distributed.network_stats in
      let sum f = f bst0 + f fstat + f bst in
      {
        counts =
          [
            ("spanner.kept_edges", Spanner.size sp);
            ("congest.messages", sum (fun s -> s.Network.messages));
            ("congest.rounds", sum (fun s -> s.Network.rounds));
            ("congest.wakeups", sum (fun s -> s.Network.wakeups));
            ("verify.checker_rounds", v.Verify.rounds);
            ("verify.checker_messages", v.Verify.messages);
            ("digest.spanner", mask_digest sp.Spanner.keep);
            ("digest.forest", array_digest (Array.of_list forest));
            ("digest.bfs", array_digest bfs.Programs.dist);
          ];
        out_edges = Spanner.size sp;
        out_vertices = Graph.n g;
        errors =
          check v.Verify.ok ("forest checker rejected: " ^ v.Verify.note) [];
        deep_check =
          (fun () ->
            let alpha = float_of_int ((2 * simulate_k) - 1) in
            let stretch =
              Stretch.sampled_edge_stretch ~jobs ~rng:(Rng.create ss.(i))
                ~samples:32 g sp.Spanner.keep
            in
            []
            |> check (Spanner.is_spanning g sp) "bs_distributed: not spanning"
            |> check (stretch <= alpha)
                 "bs_distributed: sampled stretch above 2k-1"
            |> check
                 (List.length forest = Graph.n g - 1)
                 "spanning_forest: not a spanning tree"
            |> check
                 (fst (Bfs.tree g 0) = bfs.Programs.dist)
                 "bfs: distances differ from Bfs.tree");
      }
  in
  {
    units = Array.init simulate_pool unit;
    ops = Array.init simulate_pool (fun i -> 4 * Graph.m gs.(i));
    setup_counts = [ ("graph.m", total_m gs) ];
    fingerprint =
      (fun () -> String.concat "" (Array.to_list (Array.map graph_digest gs)));
  }

(* ---------- serve: the oracle read path and its hot-tree LRU ---------- *)

let serve_pool = 16
let serve_n = 512
let serve_k = 3
let serve_batch = 512

(* Oracle artifacts and span dumps are written under the checkout, never
   outside it. *)
let scratch_dir = ".bench_tmp"

let scratch_file name =
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Filename.concat scratch_dir name

let render qs ans = digest_int (Query_engine.render_results qs ans)

let serve_setup ~jobs ~seed =
  let ss = seeds ~seed ~salt:3 2 in
  let g = gen_gnp ~seed:ss.(0) ~n:serve_n ~avg_degree:64. in
  let sp =
    span "spanner.bs_derand" (fun () ->
        (Bs_derand.run ~k:serve_k g).Bs_derand.spanner)
  in
  let built =
    span "oracle.compile" (fun () -> Oracle.compile g ~k:serve_k sp)
  in
  let path = scratch_file (Printf.sprintf "serve-%d.oracle" (Unix.getpid ())) in
  ignore (span "oracle.save" (fun () -> Oracle.save path built));
  let o = span "oracle.load" (fun () -> Oracle.load path) in
  Sys.remove path;
  let rng = Rng.create ss.(1) in
  let batches =
    Array.init serve_pool (fun _ ->
        Query_engine.generate ~rng ~n:serve_n ~count:serve_batch)
  in
  let unit i () =
    let qs = batches.(i) in
    let ans, st =
      span "oracle.query" (fun () ->
          Query_engine.run ~jobs ~metrics:!registry o qs)
    in
    fun () ->
      {
        counts =
          [
            ("oracle.cache_hits", st.Query_engine.cache_hits);
            ("oracle.cache_misses", st.Query_engine.cache_misses);
            ("oracle.cache_evictions", st.Query_engine.cache_evictions);
            ("oracle.unreachable", st.Query_engine.unreachable);
            ("digest.results", render qs ans);
          ];
        out_edges = Oracle.m o;
        out_vertices = Oracle.n o;
        errors = [];
        deep_check =
          (fun () ->
            let spot =
              Query_engine.spot_check ~rng:(Rng.create (ss.(1) + i)) g o qs ans
            in
            []
            |> check (Oracle.equal built o)
                 "oracle: save/load round trip differs"
            |> check (Result.is_ok spot)
                 (match spot with Error e -> "spot_check: " ^ e | Ok _ -> ""));
      }
  in
  {
    units = Array.init serve_pool unit;
    ops = Array.make serve_pool serve_batch;
    setup_counts =
      [
        ("graph.m", Graph.m g);
        ("spanner.kept_edges", Spanner.size sp);
        ("spanner.rounds_accounted", Spanner.total_rounds sp);
      ];
    fingerprint =
      (fun () -> graph_digest g ^ Digest.string (Marshal.to_string batches []));
  }

(* ---------- churn: write-then-read cycles on the dynamic layer ---------- *)

let churn_graphs = 8
let churn_pool = 32
let churn_n = 512
let churn_k = 3
let churn_ops = 16
let churn_queries = 64

let churn_setup ~jobs ~seed =
  let ss = seeds ~seed ~salt:4 (churn_graphs + 1) in
  let gs =
    Array.init churn_graphs (fun b ->
        gen_gnp ~seed:ss.(b) ~n:churn_n ~avg_degree:8.)
  in
  let cfg =
    { (Repair.defaults ~k:churn_k) with Repair.recert = `Local; jobs }
  in
  let bases =
    Array.map
      (fun g -> span "dynamic.create" (fun () -> Repair.create cfg g))
      gs
  in
  let rng = Rng.create ss.(churn_graphs) in
  (* entry [i] works on base graph [i mod churn_graphs]; its batch is valid
     against that initial graph, since every unit replays it on a fresh
     copy of the initial state *)
  let base i = bases.(i mod churn_graphs) in
  let batches =
    Array.init churn_pool (fun i ->
        match
          (Update_stream.generate ~rng ~batches:1 ~ops:churn_ops
             gs.(i mod churn_graphs))
            .Update_stream.batches
        with
        | [ b ] -> b
        | _ -> assert false)
  in
  let queries =
    Array.init churn_pool (fun _ ->
        Array.init churn_queries (fun _ ->
            Query_engine.Dist (Rng.int rng churn_n, Rng.int rng churn_n)))
  in
  let engines = Array.init churn_pool (fun i -> Repair.copy (base i)) in
  let unit i () =
    let r = engines.(i) and qs = queries.(i) in
    let out =
      span "dynamic.apply_batch" (fun () -> Repair.apply_batch r batches.(i))
    in
    let v = span "verify.recertify" (fun () -> Repair.recertify r) in
    let o =
      span "oracle.compile" (fun () ->
          Oracle.compile (Repair.graph r) ~k:churn_k
            { Spanner.keep = Repair.spanner r; rounds = Rounds.create () })
    in
    let ans, st =
      span "oracle.query" (fun () ->
          Query_engine.run ~jobs ~metrics:!registry o qs)
    in
    fun () ->
      let size = Repair.spanner_size r and gn = Graph.n (Repair.graph r) in
      engines.(i) <- Repair.copy (base i);
      {
        counts =
          [
            ("spanner.kept_edges", size);
            ("dynamic.work", out.Repair.work);
            ("dynamic.rebuild_work", out.Repair.rebuild_work);
            ("dynamic.rebuilds", if out.Repair.action = `Rebuild then 1 else 0);
            ("dynamic.candidates", out.Repair.candidates);
            ("dynamic.dirty", out.Repair.dirty);
            ("oracle.cache_hits", st.Query_engine.cache_hits);
            ("oracle.cache_misses", st.Query_engine.cache_misses);
            ("oracle.unreachable", st.Query_engine.unreachable);
            ("digest.results", render qs ans);
          ];
        out_edges = size;
        out_vertices = gn;
        errors =
          []
          |> check v.Repair.stretch_ok "recertify: stretch bound rejected"
          |> check v.Repair.spanning "recertify: spanner not spanning";
        deep_check = (fun () -> []);
      }
  in
  {
    units = Array.init churn_pool unit;
    ops =
      Array.init churn_pool (fun i -> List.length batches.(i));
    setup_counts = [ ("graph.m", total_m gs) ];
    fingerprint =
      (fun () ->
        String.concat "" (Array.to_list (Array.map graph_digest gs))
        ^ Digest.string
            (Update_stream.to_string
               { Update_stream.seed; batches = Array.to_list batches }));
  }

let all =
  [
    { name = "construct"; traced_jobs = 1; setup = construct_setup };
    { name = "simulate"; traced_jobs = nproc; setup = simulate_setup };
    { name = "serve"; traced_jobs = nproc; setup = serve_setup };
    { name = "churn"; traced_jobs = 1; setup = churn_setup };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* ---------- one pass over the pool ---------- *)

type pass = {
  results : result array;
  pass_errors : string list;  (** the cheap checks that failed *)
}

(* Run every pool entry once, untimed: the warm-up pass of the benchmark
   and the unit of the self-tests. *)
let run_pass p =
  let errors = ref [] in
  let results =
    Array.mapi
      (fun i u ->
        let r = (u ()) () in
        List.iter
          (fun e -> errors := Printf.sprintf "entry %d: %s" i e :: !errors)
          r.errors;
        r)
      p.units
  in
  { results; pass_errors = List.rev !errors }

(* The expensive output checks of a pass, kept apart so the traced run can
   read the layer counters of the pass before they run. *)
let deep_checks pass =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i r ->
            List.map (Printf.sprintf "entry %d: %s" i) (r.deep_check ()))
          pass.results))
