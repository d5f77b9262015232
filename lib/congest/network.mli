open! Import

(** Synchronous CONGEST-model network simulator.

    The network is the input graph: one node per vertex, communication only
    along edges, proceeding in synchronous rounds.  Per round every node may
    send one bounded-size message to each neighbour (the CONGEST bandwidth
    constraint); the simulator *enforces* the bound and records round and
    message statistics.

    Node behaviour is given as a {!program}: an initial state and a round
    function mapping (state, {!mailbox}) to (state, halt?).  A halted node
    is skipped until a message arrives, which wakes it.  The run ends when
    every node is halted and no messages are in flight, or when
    [max_rounds] is hit (an error by default, since every algorithm in
    this library has a proven round bound).

    Runs may optionally be subjected to a deterministic fault schedule
    ({!Faults}): crash-stop node failures, permanent link failures and
    probabilistic message drops.  Without a [?faults] injector the simulator
    is perfectly reliable and behaves exactly as before the fault layer
    existed (tested bit-for-bit against the empty plan). *)

(** {1:mailbox The program interface} *)

type mailbox
(** One node's view of the message plane during one call of its round
    function (do not keep it): a read cursor over the messages it received
    last round, in increasing sender order, and a send addressed by one of
    its own CSR arcs ({!Graph.section-arcs}). *)

type 'a step = { state : 'a; halt : bool }

type 'a program = {
  init : Graph.t -> int -> 'a;
      (** Initial state of each vertex.  A node only knows [n], its own id
          and its incident edges — programs honouring the model must not
          inspect the rest of the graph (this is by convention; the full
          graph is passed for convenience of address arithmetic). *)
  round : Graph.t -> round:int -> me:int -> 'a -> mailbox -> 'a step;
}

val fold : mailbox -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold mb f acc] folds [f] over the cursors of the messages received
    last round, in increasing sender order.  A cursor is valid for the
    accessors below during the same call. *)

val sender : mailbox -> int -> int
(** The vertex that sent the message. *)

val arc : mailbox -> int -> int
(** The receiver's own arc towards the sender (edge id
    [(Graph.csr g).eid.(arc)]); a reply goes out on it. *)

val length : mailbox -> int -> int
(** Payload length of the message, in words. *)

val word : mailbox -> int -> int -> int
(** [word mb c i] is word [i] of the message's payload.  Raises
    [Invalid_argument] unless [0 <= i < length mb c]. *)

val send : mailbox -> arc:int -> int array -> unit
(** Send the payload along one of the node's own arcs; its words are
    copied at the call, so the array may be reused or shared.  Checks, in
    order: the arc lies in the node's slice ({!Not_a_neighbor}), no
    earlier message on it this round ({!Duplicate_message}), the word
    limit ({!Message_too_large}); then the fault schedule decides
    delivery. *)

type engine = [ `Fast | `Ref ]
(** Message-plane implementation.  [`Fast] (the default) keeps one
    [word_limit]-word slot per CSR arc in a flat off-heap arena, with its
    length and delivery stamp, double-buffered by round parity: a send
    copies the words straight into the target's slot, and the cursor
    reads the receiver's slots in place while its neighbours write this
    round's.  A round is one pool section over a fixed set of shards
    ({!Ultraspan_util.Parallel.block_count}, a function of [n] alone).
    Each domain keeps its largest plane for its next run, so that memory
    stays allocated.  [`Ref] is the original list loop behind the same
    mailbox, kept as the reference oracle.  Both engines are observably identical —
    states, stats, fault events, traces, deterministic metrics and
    model-violation exceptions match bit-for-bit (enforced by the
    differential test suite). *)

type stats = {
  rounds : int;  (** rounds executed *)
  messages : int;  (** total messages delivered (dropped ones excluded) *)
  max_words : int;  (** largest message sent, in words *)
  wakeups : int;  (** total node activations *)
  drops : int;  (** messages lost to faults (0 without an injector) *)
  crashed_nodes : int;  (** crash-stop failures applied *)
  severed_links : int;  (** permanent link failures applied *)
}

exception Message_too_large of { sender : int; words : int; limit : int }

exception Not_a_neighbor of { sender : int; arc : int }
(** Raised when a node sends along an arc outside its own slice. *)

exception Duplicate_message of { sender : int; target : int }
(** Raised when a node sends two messages to the same neighbour in one
    round (the CONGEST bandwidth constraint allows exactly one). *)

exception Round_limit_exceeded of { limit : int; partial : stats }
(** The run hit [max_rounds].  [partial] carries the statistics observed up
    to that point so a diverging (or fault-starved) run is diagnosable. *)

val run :
  ?max_rounds:int ->
  ?word_limit:int ->
  ?faults:Faults.t ->
  ?trace:Trace.t ->
  ?metrics:Ultraspan_util.Metrics.t ->
  ?engine:engine ->
  ?jobs:int ->
  Graph.t ->
  'a program ->
  'a array * stats
(** Execute to quiescence.  [word_limit] is the per-message size cap in
    words of O(log n) bits (default 4: a constant number of ids/weights,
    the usual CONGEST convention).  [max_rounds] defaults to [100 * (n+1)].
    [engine] selects the message-plane implementation (default [`Fast];
    see {!type-engine}).

    [jobs] is the only schedule knob: it bounds the domains the [`Fast]
    engine's sharded rounds use (default 1) and never affects results,
    only wall-clock.  With [?faults] or [?trace] attached the shards run
    in node order on the caller, because the fault RNG and the trace hooks
    are order-sensitive.  The [`Ref] engine ignores [jobs].

    [faults] subjects the run to a fault schedule (see {!Faults} for the
    exact semantics); the injector must be fresh, and afterwards
    [Faults.events] holds the chronological log of what was injected.
    Crashed nodes count as halted for termination purposes, so a program
    that would wait forever for a lost message ends with
    {!Round_limit_exceeded} — whose [partial] stats include the fault
    counters.

    [trace] attaches a fresh {!Trace} sink recording per-round, per-node
    and per-edge behaviour.  Tracing is pure observation: a run with a sink
    computes exactly the same states and stats as one without (tested
    bit-for-bit), and with no sink the simulator takes the historical code
    path unchanged.

    [metrics] registers run counters in a {!Ultraspan_util.Metrics}
    registry (default: the disabled no-op sink).  Deterministic metrics
    ([congest.deliveries_total], [congest.payload_words_total],
    [congest.wakeups_total], [congest.drops_total], [congest.rounds_total],
    the [congest.max_payload_words] gauge and the
    [congest.deliveries_per_round] histogram) are identical across engines
    and accumulate across runs sharing the registry.  Engine-internal
    diagnostics (arena occupancy, the oracle's inbox sorts) live
    under [timing.congest.*], the execution namespace excluded from
    determinism gates.  Whenever a run aborts — {!Round_limit_exceeded}, a
    model violation, or an exception from the program — the registry is
    flagged partial and keeps every counter recorded up to the abort, the
    same on both engines and for every job count.  A model violation is
    the first one in (node, send) order. *)
