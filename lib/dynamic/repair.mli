open! Import

(** Incremental maintenance of a (2k-1)-spanner and a k-connectivity
    certificate under batched edge updates — graceful degradation, never a
    wrong answer.

    {2 Spanner repair}

    The engine keeps the greedy invariant that makes any subgraph [H] a
    (2k-1)-spanner: for every edge [(x, y, w)] of the current graph,
    [d_H(x, y) <= (2k-1) * w].  After a batch it restores the invariant
    locally instead of rebuilding:

    - deletions of non-spanner edges remove an obligation and never create
      one; deleted spanner edges mark their endpoints {e dirty};
    - a bound-length witness path that crossed a deleted spanner edge
      [(a, b, w_ab)] certifies [d(x, a) + w_ab + d(b, y) <= (2k-1) * w] for
      the edge [(x, y, w)] it served, so one truncated Dijkstra per dirty
      vertex in the {e old} spanner (radius [(2k-1) * max_w]) is enough to
      find every edge whose bound may have broken — the {e candidates} —
      along with all insertions of the batch;
    - candidates are re-checked in ascending (weight, endpoints) order with
      early-exit truncated Dijkstras against the current spanner, adding
      the candidate itself when its bound fails (re-clustering its
      endpoints into the spanner), which restores the invariant and cannot
      break any other edge's bound.

    When a batch's damage exceeds the configured threshold
    ({!config.max_affected}) the engine falls back to a from-scratch
    {!Bs_derand} rebuild — the degradation is in {e cost}, never in the
    answer.  Between rebuilds the spanner only grows; rebuilds restore the
    deterministic size guarantees.

    {2 Lazy recertification}

    The certificate is built with {e headroom}: a request for [ck]-edge-
    connectivity builds a [(ck + headroom)]-certificate.  Constructions
    with the strong cut property (every cut keeps all of its edges or at
    least [ck + headroom] of them) tolerate deletions lazily: after [d]
    certificate-edge deletions every non-full cut still keeps
    [>= ck + headroom - d] edges, so while the {e debt} [d] stays at most
    [headroom] the survivors still certify [ck]-connectivity of the
    current graph.  Insertions are appended to the certificate (cuts only
    gain edges); the certificate is rebuilt from scratch only when the
    debt exceeds the headroom.

    {2 State and cost}

    The state is the immutable current {!Graph.t} plus two masks over its
    edge ids: the spanner and the certificate.  A batch is applied by
    {!Update_stream.merge}, one merge of the batch's net edits into the
    canonical edge array that also yields the old-id to new-id map; both
    masks are carried through that map, so nothing is keyed by vertex
    pairs.  The engine runs no search of its own.  All dirty balls of a
    batch are one {!Ultraspan_graph.Dijkstra.balls} call over the
    distinct dirty vertices: one bit-parallel breadth-first search when
    every kept edge weighs 1, one budgeted
    {!Ultraspan_graph.Dijkstra.search} per dirty vertex otherwise.  The
    filter reads their distances from that kernel's per-domain scratch,
    so a batch allocates no row per dirty vertex.  The candidate re-check
    is {!Ultraspan_spanner.Greedy.pass}, the pass that builds the greedy
    baseline, over the candidates.  [work] charges each ball the kept
    arcs of its vertices plus one per vertex, which does not depend on
    how the ball was searched, then the filter's checks and the arcs the
    re-check's searches scan; those scan CSR arcs in order and pop heap
    ties in a fixed order.  So the counter is a deterministic function of
    the graph and the stream.

    {2 Recertified recovery}

    {!recertify} re-runs the repo's ground-truth checkers on the current
    state — {!Stretch.check_stretch}, {!Connectivity.spans},
    {!Certificate.is_certificate} and the {!Resilience} failure-set
    harness — so recovery is re-proved, not just re-measured. *)

type cert_algo = Thurimella | Kecss

type config = {
  k : int;  (** spanner parameter: stretch bound 2k-1 *)
  mode : [ `Incremental | `Rebuild ];
      (** [`Rebuild] reconstructs from scratch every batch (the engine
          differential baselines compare against). *)
  cert : (cert_algo * int) option;
      (** maintain a certificate of [ck]-edge-connectivity, or [None] *)
  headroom : int;  (** extra connectivity built into the certificate *)
  max_affected : float;
      (** fall back to a rebuild when the batch deletes more than
          [max_affected * spanner_size] spanner edges or yields more than
          [max_affected * m] candidates *)
  jobs : int;  (** domain-pool width for the verification kernels *)
  recert : [ `Exact | `Local | `Probe ];
      (** what {!recertify} runs: [`Exact] (default) — the centralized
          ground-truth checkers; [`Local] — witness construction plus the
          O(k)-round CONGEST checker programs ({!Ultraspan_verify.Verify}
          [Local] mode): an accept certifies the stretch bound without
          measuring exact stretch, so [verdicts.stretch] reports the
          certified bound [2k-1] on accept and [infinity] on reject, and
          [cert_violations] is [None]; [`Probe] — sublinear eps-far
          connectivity spot-checks only (stretch fields vacuous). *)
}

val defaults : k:int -> config
(** [`Incremental], no certificate, [headroom = k], [max_affected = 0.25],
    [jobs = 1].  Override fields with record update syntax.  Raises
    [Invalid_argument] if [k < 1]. *)

type outcome = {
  batch : int;  (** 1-based index of the batch in this engine's life *)
  inserts : int;
  deletes : int;
  action : [ `Repair | `Rebuild ];
  dirty : int;  (** endpoints of deleted spanner edges *)
  candidates : int;  (** edges whose stretch bound was re-checked *)
  added : int;  (** spanner edges added *)
  removed : int;  (** spanner edges lost to deletions *)
  work : int;
      (** deterministic cost of this batch on the repair path: kept
          arcs scanned by every search, ball marking, one membership
          pass over the edge list and the ball-restricted detour checks
          of the candidate filter; the {!field-rebuild_work} proxy when
          the batch rebuilt *)
  rebuild_work : int;
      (** what a from-scratch rebuild costs under the documented
          lower-bound proxy [(k+1) * m + n] — [k-1] derandomized
          iterations plus the finishing iteration each touch every alive
          edge at least once.  Comparing [work] against it is therefore
          conservative in the rebuild's favour. *)
  cert_removed : int;  (** certificate edges lost to deletions *)
  cert_debt : int;  (** deletion debt after the batch *)
  cert_rebuilt : bool;
}

type verdicts = {
  stretch : float;  (** exact max edge stretch of the current state *)
  stretch_ok : bool;  (** {!Stretch.check_stretch} at alpha = 2k-1 *)
  spanning : bool;  (** {!Connectivity.spans}: skeleton property *)
  cert_ok : bool option;
      (** {!Certificate.is_certificate} at the requested [ck] *)
  cert_violations : int option;
      (** violations found by {!Resilience.check_certificate} *)
}

type t

val create : ?metrics:Ultraspan_util.Metrics.t -> config -> Graph.t -> t
(** Build the initial spanner (and certificate, if configured) on [g].
    Raises [Invalid_argument] on a malformed config.

    [metrics] (default: the disabled sink) accumulates per-batch engine
    counters under [dynamic.repair.*]: [batches_total],
    [dirty_balls_total], [candidates_total], [candidates_filtered] (edges
    the dirty-ball filter rejected), [repairs_total] / [rebuilds_total] /
    [rebuild_fallbacks] (candidate-overflow aborts), [work_total],
    [edges_added_total] / [edges_removed_total], [cert_rebuilds_total],
    and the [recert_debt] gauge.  The engine is sequentially
    deterministic, so all of these are jobs- and engine-invariant.
    {!copy} shares the registry handles with the original. *)

val config : t -> config

val graph : t -> Graph.t
(** The current graph (edge ids are renumbered after every batch). *)

val spanner : t -> bool array
(** Edge mask over {!graph}: the engine's own array, do not mutate. *)

val spanner_size : t -> int

val certificate : t -> Certificate.t option
(** The maintained certificate at the {e requested} connectivity [ck] (the
    headroom is an implementation margin, not a claim). *)

val certificate_size : t -> int
(** [0] when no certificate is maintained. *)

val cert_debt : t -> int

val apply_batch : t -> Update_stream.batch -> outcome
(** Apply one batch strictly (the ops contract of {!Update_stream.merge})
    and repair or rebuild the structures.  Every invalid op — an endpoint
    outside [0 <= u < v < n] (negative, out of range, a self-loop or a
    non-canonical pair built with the raw constructors), an insert with
    [w < 1] or of a present edge, a delete of an absent edge — raises a
    one-line [Failure] before anything changes, so the engine is left as
    it was. *)

val apply_stream : t -> Update_stream.t -> outcome list

val recertify : ?rng:Rng.t -> ?budget:int -> t -> verdicts
(** Verification of the current state in the configured {!config.recert}
    mode.  [`Exact]: ground truth, [budget] caps the Resilience failure
    sets sampled (default 200).  [`Local] / [`Probe]: see
    {!config.recert}; [rng] and [budget] are unused there.  Pure: the
    engine is not modified. *)

val copy : t -> t
(** Independent deep copy (shares only immutable data).  Lets harnesses
    replay batches from a common initial state. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_verdicts : Format.formatter -> verdicts -> unit
