open! Import

(** Batch query engine over a compiled {!Oracle.t}.

    Answers two query kinds against the spanner the oracle froze:

    - [dist s t] — the exact spanner distance [d_H(s, t)] (which the
      spanner contract bounds by [(2k-1) * d_G(s, t)]), computed by a
      bounded bidirectional Dijkstra; cross-cluster pairs short-circuit to
      unreachable in O(1) via the component labels.
    - [mem u v] — spanner edge membership; a positive answer carries the
      edge id {e in the original graph}.

    Batches fan out across the {!Parallel} domain pool with the fixed
    block schedule of {!Parallel.iter_blocks}, one scratch per domain
    (stamped distance arrays, reusable heaps, grown to the largest [n]
    served) shared by all its queries, batches and oracles,
    and answers written by query index — result files are byte-identical
    for every [--jobs], which the test suite asserts by [cmp].  Every
    distance query takes the same route, however often its source recurs
    in the batch: on every workload the repository serves, bidirectional
    search beats building per-source trees (EXPERIMENTS.md, Q1). *)

val queries_schema : string
(** ["ultraspan-queries/1"] — header line of batch query files. *)

val results_schema : string
(** ["ultraspan-results/1"] — header line of result files. *)

type query =
  | Dist of int * int  (** [dist s t] *)
  | Mem of int * int  (** [mem u v] *)

type answer =
  | Dist_answer of int  (** spanner distance; [Dijkstra.infinity] = unreachable *)
  | Mem_answer of int option  (** original-graph edge id when present *)

(** {1 Text formats} *)

val parse_queries : path:string -> string -> query array
(** Parse the [ultraspan-queries/1] text format (header line, then one
    [dist s t] / [mem u v] query per line; blank lines ignored).  Raises
    [Failure] with a one-line [path:line:] diagnostic on a bad header or
    malformed line — the CLI turns that into exit 1. *)

val load_queries : string -> query array

val save_queries : string -> query array -> unit

val render_results : query array -> answer array -> string
(** The [ultraspan-results/1] file contents: header line, then one line
    per query in input order — [dist s t <d|inf>], [mem u v yes <eid>],
    [mem u v no].  Pure function of (queries, answers): this is where
    byte-identity across job counts is decided. *)

val save_results : string -> query array -> answer array -> unit

(** {1 Workload generation} *)

val generate : rng:Rng.t -> n:int -> count:int -> query array
(** Seeded mixed workload: ~60% distance queries from a small hot pool of
    sources (the skew of a realistic serving batch), ~15% uniform distance
    queries, ~25% membership queries.  Deterministic in [rng]. *)

(** {1 Execution} *)

type stats = {
  queries : int;
  dist : int;  (** distance queries answered *)
  mem : int;  (** membership queries answered *)
  unreachable : int;  (** distance queries across clusters *)
  cache_hits : int;  (** always [0] *)
  cache_misses : int;  (** always [0] *)
  cache_evictions : int;  (** always [0] *)
}
(** Every field is a function of the batch and oracle alone, identical
    for every job count.  The engine holds no cache: the three [cache_*]
    fields stay only because [perfbench/] reads them, and go with its next
    change. *)

val run :
  ?jobs:int ->
  ?metrics:Metrics.t ->
  Oracle.t ->
  query array ->
  answer array * stats
(** Answer a batch in one {!Parallel.iter_blocks} section over every
    membership, same-vertex, cross-cluster and bidirectional query.
    Registry counters: [oracle.queries_total] / [oracle.dist_total] /
    [oracle.mem_total] / [oracle.unreachable_total], all batch functions
    published from the calling domain after the parallel section.  Raises
    [Failure] on out-of-range query vertices (checked up front). *)

(** {1 Local verification} *)

val spot_check :
  ?samples:int ->
  rng:Rng.t ->
  Graph.t ->
  Oracle.t ->
  query array ->
  answer array ->
  (int, string) result
(** Sample [samples] (default 32) answered queries and check them against
    the {e original} graph [g]: every distance answer [d] must satisfy
    [d_G <= d <= (2k-1) * d_G] (exact point-to-point Dijkstra on [g]),
    and every positive membership answer must name an edge of [g] with
    the queried endpoints.  [Ok checked] or [Error diagnostic]. *)
