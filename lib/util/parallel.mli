(** Deterministic domain-pool parallelism.

    A small reusable pool of worker domains (OCaml 5 [Domain]s) for the
    embarrassingly parallel kernels of the repo: per-source Dijkstras in the
    stretch/APSP verifiers and independent seeded trials in the bench
    harness.

    The layer is built so that parallelism can never change a result:

    - the chunk partition of an index range is a fixed function of the range
      alone (never of the job count), and chunks are claimed dynamically
      only to decide {e which domain} computes them;
    - {!map_reduce} stores one value per index and reduces them on the
      calling domain in index order, so the reduction performs {e exactly}
      the arithmetic of the sequential left fold — float sums are
      bit-identical for any job count, including [jobs = 1];
    - [jobs = 1] takes a plain sequential path with no domain traffic.

    Worker domains are spawned lazily on first use, parked between parallel
    sections, and joined at process exit.  Nested parallel sections (a
    parallel body calling back into this module) degrade to the sequential
    path instead of deadlocking or oversubscribing. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the machine can actually
    run in parallel.  Used by the perf harness to decide whether a speedup
    floor is meaningful. *)

val set_metrics : Metrics.t option -> unit
(** Attach (or detach, with [None]) a global metrics registry.  The layer
    is process-global, so its instrumentation is too.  Call only while no
    parallel section is running.

    Deterministic counters — [parallel.sections_total],
    [parallel.chunks_total], [parallel.items_total] — are functions of the
    submitted work alone and are byte-identical for every job count (the
    sequential [map_reduce] shortcut mirrors the chunked path's
    accounting).  Schedule- and clock-dependent data live in the execution
    namespace: [timing.parallel.pool.sequential_sections] /
    [caller_chunks] / [worker_chunks] counters and the
    [timing.parallel.pool.section] / [chunk_run] / [job_capacity] timers.
    Pool utilization is [chunk_run / job_capacity] ([job_capacity]
    accumulates section wall-clock × participating domains).  Worker-side
    measurements are merged under the pool lock and published to the
    registry from the calling domain after each section's barrier. *)

val parallel_for : ?jobs:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for ?jobs lo hi f] runs [f i] for every [lo <= i < hi],
    fanned across [jobs] domains (the caller participates; [jobs - 1]
    workers are taken from the pool).  [f] must write only to disjoint
    per-index state; completion of the call synchronizes all writes.
    Exceptions raised by [f] are re-raised on the caller. *)

val block_count : int -> int
(** Number of blocks {!iter_blocks} partitions a range of [n] indices
    into: [min n 64], and [0] for an empty range.  A fixed function of
    [n] alone — callers sizing per-block accumulators get the same shard
    layout for every job count. *)

val iter_blocks :
  ?jobs:int -> ?counted:bool -> int -> (int -> int -> int -> unit) -> unit
(** [iter_blocks ?jobs n f] calls [f block lo hi] once per block of the
    fixed partition of [0 .. n-1] ([block_count n] blocks, block [c]
    covering [n*c/k .. n*(c+1)/k - 1]), fanned across [jobs] domains.
    This is {!parallel_for} exposed at block granularity, for callers
    that keep per-block state (e.g. the CONGEST simulator's per-shard
    stat accumulators).  [f] must write only to per-block state;
    completion of the call synchronizes all writes.

    [counted] (default [true]) adds the section to the deterministic
    [parallel.*] counters.  Pass [false] when running on the pool is
    itself an implementation choice a caller must not leak into them —
    the simulator's [`Fast] engine, whose registry has to match the
    pool-free [`Ref] engine's; such sections still show under
    [timing.parallel.pool.*]. *)

val map_array : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_array ?jobs n f] is [Array.init n f] with the calls fanned across
    domains.  Element order is index order regardless of scheduling. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ?jobs f xs] is [List.map f xs] with the calls fanned across
    domains; result order is list order. *)

val map_reduce :
  ?jobs:int -> n:int -> map:(int -> 'a) -> init:'b -> reduce:('b -> 'a -> 'b) -> 'b
(** [map_reduce ?jobs ~n ~map ~init ~reduce] is
    [reduce (... (reduce init (map 0)) ...) (map (n-1))]: the maps run in
    parallel, the reduction runs on the caller in index order.  Bit-identical
    to the sequential left fold for every job count. *)
