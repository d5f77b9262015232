(** Wall-clock phase timers for the bench harness and the CLI.

    A [Profile.t] accumulates elapsed wall-clock seconds (and GC word
    deltas, read with {!Metrics.gc_words}) under named phases.  Wrap each phase in
    {!time} (or feed durations measured elsewhere to {!record}) and print
    the ledger with {!pp}.  Phases keep first-use order; re-entering a
    label accumulates into it.

    Scopes nest: a {!time} call inside another runs under the path
    ["outer/inner"], rendered indented by {!pp} and exported
    hierarchically.  Top-level labels behave exactly as the historical
    flat profiler.  This is observability only — timing a phase never
    changes its result. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t label f] runs [f], adds its elapsed wall-clock time and GC
    word deltas under [label] — nested under the enclosing {!time} scope's
    path, if any — (even if [f] raises), and returns [f ()]'s result. *)

val record : t -> string -> float -> unit
(** Add a duration in seconds measured externally, under the current scope
    path.  No GC attribution.  Raises [Invalid_argument] on a negative
    duration. *)

val phases : t -> (string * float * int) list
(** [(path, total seconds, call count)] per phase, in first-use order;
    nested phases appear as ["outer/inner"] paths. *)

val total : t -> float
(** Sum of all top-level phase durations (nested scopes are already inside
    their parents, so they are not double-counted). *)

val pp : Format.formatter -> t -> unit

val export : t -> Metrics.t -> unit
(** Publish every phase into the registry as a [timing.profile.*] timer
    (labels sanitized to metric-name characters, ['/'] becoming ['.']).
    Uses absolute-overwrite semantics, so re-exporting after further
    phases never double-counts. *)

val chrome_events : t -> string list
(** Each timed scope instance as a Chrome-trace complete event (JSON
    object, one per string) on [tid 1], microsecond timestamps relative to
    {!create} — suitable for [Trace.to_chrome ~extra_events].  At most
    4096 spans are retained. *)
