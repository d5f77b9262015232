let available_cores () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Deterministic counters (sections/chunks/items) are a function of the
   submitted work only — the fixed chunk partition makes them identical
   for every job count, and [map_reduce]'s sequential shortcut mirrors
   the counting the chunked path would do.  Everything schedule-dependent
   (who ran which chunk, wall-clock, sequential fallbacks) lives under
   [timing.parallel.pool.*], the execution namespace.

   [job_capacity] accumulates section-wall × participants so that
   pool utilization = chunk_run / job_capacity aggregates across sections
   of different widths. *)
type pmeters = {
  pm_on : bool;
  pm_sections : Metrics.counter;
  pm_chunks : Metrics.counter;
  pm_items : Metrics.counter;
  pm_seq_sections : Metrics.counter;
  pm_caller_chunks : Metrics.counter;
  pm_worker_chunks : Metrics.counter;
  pm_chunk_run : Metrics.timer;
  pm_section : Metrics.timer;
  pm_capacity : Metrics.timer;
}

let pmeters_of reg =
  {
    pm_on = Metrics.live reg;
    pm_sections = Metrics.counter reg "parallel.sections_total";
    pm_chunks = Metrics.counter reg "parallel.chunks_total";
    pm_items = Metrics.counter reg "parallel.items_total";
    pm_seq_sections = Metrics.counter reg "timing.parallel.pool.sequential_sections";
    pm_caller_chunks = Metrics.counter reg "timing.parallel.pool.caller_chunks";
    pm_worker_chunks = Metrics.counter reg "timing.parallel.pool.worker_chunks";
    pm_chunk_run = Metrics.timer reg "parallel.pool.chunk_run";
    pm_section = Metrics.timer reg "parallel.pool.section";
    pm_capacity = Metrics.timer reg "parallel.pool.job_capacity";
  }

let dead_pmeters = pmeters_of Metrics.disabled
let pmeters = ref dead_pmeters

let set_metrics = function
  | None -> pmeters := dead_pmeters
  | Some reg -> pmeters := pmeters_of reg

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)
(* ------------------------------------------------------------------ *)

type task = {
  body : int -> unit;  (* chunk index -> work *)
  nchunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  workers : int;  (* pool workers participating (the caller is extra) *)
  mutable running : int;  (* participating workers not yet finished *)
  mutable failed : exn option;  (* first failure, re-raised on the caller *)
  mutable w_chunks : int;  (* chunks executed by pool workers *)
  mutable w_seconds : float;  (* their summed per-chunk wall time *)
}

type pool = {
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable task : task option;
  mutable generation : int;  (* bumped once per published task *)
  mutable domains : unit Domain.t list;
  mutable size : int;
  mutable quit : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    task = None;
    generation = 0;
    domains = [];
    size = 0;
    quit = false;
  }

(* True while this domain is executing chunks of some task: a nested
   parallel section must run sequentially (the pool is parked behind the
   outer section, so waiting on it would deadlock). *)
let inside_section = Domain.DLS.new_key (fun () -> ref false)

let record_failure t e =
  Mutex.lock pool.lock;
  if t.failed = None then t.failed <- Some e;
  Mutex.unlock pool.lock;
  (* stop other domains from claiming further chunks; fail fast *)
  Atomic.set t.next t.nchunks

(* Returns (chunks executed, their summed wall time) — merged into the
   task record under the pool lock by workers, and published to the
   metrics registry by the caller after the barrier, so handle updates
   stay on the caller's domain. *)
let claim_chunks t =
  let inside = Domain.DLS.get inside_section in
  inside := true;
  let timed = !pmeters.pm_on in
  let chunks = ref 0 and secs = ref 0.0 in
  let rec go () =
    let c = Atomic.fetch_and_add t.next 1 in
    if c < t.nchunks then begin
      (if timed then begin
         let t0 = Unix.gettimeofday () in
         (try t.body c with e -> record_failure t e);
         secs := !secs +. (Unix.gettimeofday () -. t0)
       end
       else try t.body c with e -> record_failure t e);
      incr chunks;
      go ()
    end
  in
  go ();
  inside := false;
  (!chunks, !secs)

let rec worker_loop id last_gen =
  Mutex.lock pool.lock;
  while (not pool.quit) && pool.generation = last_gen do
    Condition.wait pool.work_ready pool.lock
  done;
  if pool.quit then Mutex.unlock pool.lock
  else begin
    let gen = pool.generation in
    let task = pool.task in
    Mutex.unlock pool.lock;
    (match task with
    | Some t when id < t.workers ->
        let chunks, secs = claim_chunks t in
        Mutex.lock pool.lock;
        t.w_chunks <- t.w_chunks + chunks;
        t.w_seconds <- t.w_seconds +. secs;
        t.running <- t.running - 1;
        if t.running = 0 then Condition.broadcast pool.work_done;
        Mutex.unlock pool.lock
    | _ -> ());
    worker_loop id gen
  end

let teardown () =
  Mutex.lock pool.lock;
  pool.quit <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- [];
  pool.size <- 0

(* Grow the pool to [want] parked workers.  Workers capture the generation
   current at spawn time, so a task published after this call is always
   observed as new. *)
let ensure_workers want =
  if pool.size < want then begin
    if pool.size = 0 then at_exit teardown;
    Mutex.lock pool.lock;
    let gen = pool.generation in
    Mutex.unlock pool.lock;
    for id = pool.size to want - 1 do
      pool.domains <- Domain.spawn (fun () -> worker_loop id gen) :: pool.domains
    done;
    pool.size <- want
  end

(* Fixed chunk partition: a function of the range only, never of the job
   count.  Chunk [c] of [n] indices covers [n*c/k, n*(c+1)/k) for
   k = min n 64 — balanced to within one index. *)
let max_chunks = 64

let run_chunked ~jobs ~nchunks body =
  if nchunks > 0 then
    if jobs <= 1 || nchunks = 1 || !(Domain.DLS.get inside_section) then begin
      let pm = !pmeters in
      if pm.pm_on then begin
        Metrics.incr pm.pm_seq_sections;
        let t0 = Unix.gettimeofday () in
        for c = 0 to nchunks - 1 do
          body c
        done;
        let dt = Unix.gettimeofday () -. t0 in
        Metrics.timer_add pm.pm_section dt;
        Metrics.timer_add pm.pm_capacity dt;
        Metrics.timer_add pm.pm_chunk_run dt;
        Metrics.add pm.pm_caller_chunks nchunks
      end
      else
        for c = 0 to nchunks - 1 do
          body c
        done
    end
    else begin
      let pm = !pmeters in
      let workers = min (jobs - 1) (nchunks - 1) in
      ensure_workers workers;
      let t =
        {
          body;
          nchunks;
          next = Atomic.make 0;
          workers;
          running = workers;
          failed = None;
          w_chunks = 0;
          w_seconds = 0.0;
        }
      in
      let t0 = if pm.pm_on then Unix.gettimeofday () else 0.0 in
      Mutex.lock pool.lock;
      pool.task <- Some t;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.lock;
      let caller_chunks, caller_secs = claim_chunks t in
      Mutex.lock pool.lock;
      while t.running > 0 do
        Condition.wait pool.work_done pool.lock
      done;
      pool.task <- None;
      Mutex.unlock pool.lock;
      if pm.pm_on then begin
        let dt = Unix.gettimeofday () -. t0 in
        Metrics.timer_add pm.pm_section dt;
        Metrics.timer_add pm.pm_capacity (dt *. float_of_int (workers + 1));
        Metrics.timer_add pm.pm_chunk_run (caller_secs +. t.w_seconds);
        Metrics.add pm.pm_caller_chunks caller_chunks;
        Metrics.add pm.pm_worker_chunks t.w_chunks
      end;
      match t.failed with Some e -> raise e | None -> ()
    end

let resolve_jobs = function
  | None -> 1
  | Some j when j >= 1 -> j
  | Some j -> invalid_arg (Printf.sprintf "Parallel: jobs must be >= 1, got %d" j)

let parallel_for ?jobs lo hi f =
  let len = hi - lo in
  if len > 0 then begin
    let jobs = resolve_jobs jobs in
    let nchunks = min len max_chunks in
    let pm = !pmeters in
    if pm.pm_on then begin
      Metrics.incr pm.pm_sections;
      Metrics.add pm.pm_chunks nchunks;
      Metrics.add pm.pm_items len
    end;
    run_chunked ~jobs ~nchunks (fun c ->
        let a = lo + (len * c / nchunks) and b = lo + (len * (c + 1) / nchunks) in
        for i = a to b - 1 do
          f i
        done)
  end

let block_count n = if n <= 0 then 0 else min n max_chunks

let iter_blocks ?jobs ?(counted = true) n f =
  if n > 0 then begin
    let jobs = resolve_jobs jobs in
    let k = block_count n in
    let pm = !pmeters in
    if pm.pm_on && counted then begin
      Metrics.incr pm.pm_sections;
      Metrics.add pm.pm_chunks k;
      Metrics.add pm.pm_items n
    end;
    run_chunked ~jobs ~nchunks:k (fun c -> f c (n * c / k) (n * (c + 1) / k))
  end

let map_array ?jobs n f =
  if n = 0 then [||]
  else begin
    let res = Array.make n None in
    parallel_for ?jobs 0 n (fun i -> res.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) res
  end

let map_list ?jobs f xs =
  let a = Array.of_list xs in
  Array.to_list (map_array ?jobs (Array.length a) (fun i -> f a.(i)))

let map_reduce ?jobs ~n ~map ~init ~reduce =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || n <= 1 then begin
    (* Sequential left fold — the parallel path below performs exactly this
       arithmetic (per-index values reduced in index order).  The counter
       mirroring keeps the deterministic metrics jobs-invariant: this
       shortcut must account for the same sections/chunks/items the
       chunked path (via [parallel_for]) would have recorded. *)
    let pm = !pmeters in
    if pm.pm_on && n > 0 then begin
      Metrics.incr pm.pm_sections;
      Metrics.add pm.pm_chunks (min n max_chunks);
      Metrics.add pm.pm_items n;
      Metrics.incr pm.pm_seq_sections
    end;
    let fold () =
      let acc = ref init in
      for i = 0 to n - 1 do
        acc := reduce !acc (map i)
      done;
      !acc
    in
    if pm.pm_on && n > 0 then begin
      let t0 = Unix.gettimeofday () in
      let r = fold () in
      let dt = Unix.gettimeofday () -. t0 in
      Metrics.timer_add pm.pm_section dt;
      Metrics.timer_add pm.pm_capacity dt;
      Metrics.timer_add pm.pm_chunk_run dt;
      Metrics.add pm.pm_caller_chunks (min n max_chunks);
      r
    end
    else fold ()
  end
  else Array.fold_left reduce init (map_array ~jobs n map)
