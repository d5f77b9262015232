(** Typed metrics registry: counters, gauges, fixed-bucket histograms and
    timer aggregates under hierarchical dot-names.

    Zero overhead when off: handles resolved against {!disabled} are shared
    dead records whose update functions test one immediate bool and return —
    no allocation on the hot path.  Resolve handles once, outside loops.

    Determinism contract: every metric outside the [timing.*] namespace must
    be derived purely from algorithm work, so snapshots are byte-identical
    across [--jobs] and simulator engines.  [timing.*] is the execution
    namespace — wall-clock timers (auto-prefixed by {!timer}) and
    engine-/schedule-internal diagnostics — and is excluded from the
    determinism gates ({!strip_timing}). *)

type t
(** A registry.  Thread-safety: registration and {!snapshot} are locked;
    handle updates are unsynchronized and must stay on one domain (the
    deterministic [Parallel] pool publishes worker-side aggregates from the
    caller domain after its barrier). *)

val create : unit -> t
val disabled : t
(** The shared no-op sink: registrations return dead handles. *)

val live : t -> bool

val mark_partial : t -> unit
(** Flag the registry as describing an interrupted run (e.g.
    [Round_limit_exceeded], fault-injection abort).  Snapshots carry the
    flag; reports and artifacts surface it. *)

(** {1 Handles} *)

type counter
type gauge
type histogram
type timer

val counter : t -> string -> counter
(** Registration is idempotent: the same name returns the same handle, so
    repeated runs against one registry accumulate.  Raises [Invalid_argument]
    on malformed names (segments of [a-z0-9_] joined by dots) or when the
    name is already registered with a different metric type. *)

val gauge : t -> string -> gauge

val histogram : ?buckets:int array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds ([le] semantics); an
    implicit overflow bucket is appended.  Default: powers of two up to
    65536. *)

val timer : t -> string -> timer
(** Timers measure wall-clock and GC churn, so they always live in the
    execution namespace: the name is prefixed with ["timing."] unless it
    already is. *)

(** {1 Hot-path updates — no allocation} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** High-water mark: keep the maximum of the current and given value. *)

val observe : histogram -> int -> unit
val timer_add : timer -> float -> unit

val timer_set :
  timer ->
  seconds:float ->
  calls:int ->
  minor_words:float ->
  major_words:float ->
  promoted_words:float ->
  unit
(** Absolute overwrite — for exporting externally-aggregated phase data
    (e.g. [Profile]) idempotently. *)

val gc_words : unit -> float * float * float
(** [(minor, promoted, major)] words this domain has allocated so far,
    exact at any instant: minor words from [Gc.minor_words], promoted and
    major words (which include the promoted ones) from [Gc.counters]. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating wall-clock seconds and {!gc_words}
    deltas.  On a dead handle this is exactly the thunk. *)

val value : counter -> int
val gauge_value : gauge -> int

(** {1 Snapshots} *)

type hist_data = {
  hedges : int array;
  hcounts : int array;  (** length [|hedges| + 1]; last = overflow *)
  hsum : int;
  htotal : int;
}

type timer_data = {
  tseconds : float;
  tcalls : int;
  tminor_words : float;
  tmajor_words : float;
  tpromoted_words : float;
}

type snapshot = {
  partial : bool;
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : (string * hist_data) list;
  timers : (string * timer_data) list;
}

val snapshot : t -> snapshot
(** Deterministic: entries sorted by name. *)

val in_timing_namespace : string -> bool

val strip_timing : snapshot -> snapshot
(** Drop every [timing.*] metric (all timers, plus any counter/gauge/
    histogram registered under the execution namespace).  What remains is
    covered by the byte-identical determinism gates. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_timer : snapshot -> string -> timer_data option

val exposition : ?strip:bool -> snapshot -> string
(** Prometheus-style text exposition (TYPE comments, [le] bucket labels,
    [_sum]/[_count]); deterministic byte-for-byte.  [strip] applies
    {!strip_timing} first. *)

val pp_report : ?top:int -> Format.formatter -> snapshot -> unit
(** Human report: top-[top] counters split deterministic vs execution,
    gauges, histogram sparklines, timer table with GC deltas. *)
