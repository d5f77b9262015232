open! Import

(** Deterministic fault injection for the CONGEST simulator.

    A {!spec} is an immutable, declarative fault plan: crash-stop node
    failures and permanent link failures pinned to specific rounds, plus a
    per-delivery probabilistic message-drop rate driven by the library's
    SplitMix64 generator.  A [(seed, spec)] pair replays {e exactly}: two
    runs of the same program on the same graph with injectors built from
    equal specs produce identical states, statistics and fault-event logs.

    Semantics (enforced by {!Network.run}):

    - A node crashed at round [r] takes no step from round [r] on: it sends
      nothing, and every message addressed to it — in flight or sent later —
      is dropped.  Crash-stop, no recovery.
    - A link severed at round [r] drops every message {e sent} on it from
      round [r] on.  Messages already in flight (sent at round [r-1]) still
      arrive: the failure cuts the wire, not the receiver's buffer.
    - Probabilistic drops apply to deliveries that survived the two rules
      above, each with probability [drop_prob], consuming the injector's
      private RNG stream in the deterministic node-order/send-order of the
      simulator.

    Fault events never raise: a program under faults runs to quiescence (or
    to the round limit) and the damage is reported in the enriched
    {!Network.stats} and the chronological {!events} log. *)

(** {1 Plans} *)

type spec = {
  crashes : (int * int) list;  (** [(round, node)]: crash-stop at round start. *)
  link_failures : (int * int * int) list;
      (** [(round, u, v)]: the (undirected) link dies at round start. *)
  drop_prob : float;  (** per-delivery drop probability in [0, 1]. *)
  seed : int;  (** seed of the private drop RNG. *)
}

val empty : spec
(** No faults.  Running under [empty] is bit-identical to running without
    an injector (tested). *)

val crash : round:int -> int -> spec -> spec
(** Add one crash-stop failure.  [round >= 0]. *)

val sever : round:int -> int -> int -> spec -> spec
(** Add one permanent link failure (endpoint order irrelevant). *)

val with_drops : ?seed:int -> float -> spec -> spec
(** Set the probabilistic drop rate (and optionally reseed the drop RNG).
    Raises [Invalid_argument] outside [0, 1]. *)

val random_crashes :
  rng:Util.Rng.t -> n:int -> within:int -> count:int -> spec -> spec
(** Add [count] crashes of distinct nodes drawn uniformly from [0, n) at
    rounds uniform in [0, within].  Requires [count <= n]. *)

val random_link_failures :
  rng:Util.Rng.t -> Graph.t -> within:int -> count:int -> spec -> spec
(** Add [count] permanent failures of distinct edges of the graph, at
    rounds uniform in [0, within].  Requires [count <= m]. *)

val pp : Format.formatter -> spec -> unit
(** One-line summary: #crashes, #link failures, drop rate, seed. *)

val to_update_stream : Graph.t -> spec -> (int * (int * int) list) list
(** Reinterpret the permanent failures of a plan as batched edge deletions
    on [g]: a link failure {e is} an edge deletion, and a crash-stop node
    failure deletes every edge still incident to the node.  The result is
    one [(round, deletions)] batch per round that kills at least one edge,
    in increasing round order; each batch lists its dead edges as canonical
    [(u, v)] pairs ([u < v]) in ascending order, every graph edge appearing
    at most once across the whole stream.  Severed pairs that are not edges
    of [g] are skipped, and [drop_prob] is ignored — probabilistic drops
    are transient, not topology changes.  This is the bridge that lets any
    PR 1 fault plan replay through the dynamic-update engine
    ([Update_stream.of_faults] wraps it).
    Raises [Invalid_argument] on out-of-range nodes. *)

(** {1 Fault events} *)

type drop_reason =
  | Chance  (** lost to the probabilistic drop rate *)
  | Link_down  (** sent over a severed link *)
  | Receiver_crashed  (** addressed to (or in flight towards) a crashed node *)

type event =
  | Crash of { round : int; node : int }
  | Sever of { round : int; u : int; v : int }
  | Drop of { round : int; sender : int; target : int; reason : drop_reason }

val pp_event : Format.formatter -> event -> unit

(** {1 Injectors} *)

type t
(** A single-use stateful injector compiled from a {!spec}: it carries the
    drop RNG and accumulates the event log of one run.  Build a fresh one
    per run; {!Network.run} rejects a reused injector. *)

val make : spec -> t

val spec : t -> spec
(** The plan this injector was compiled from. *)

val events : t -> event list
(** Chronological log of everything the injector did, available after (or
    during) the run. *)

val drops : t -> int

val crashed_nodes : t -> int
(** Number of crash events applied so far (scheduled crashes of already
    crashed nodes are not double counted). *)

val severed_links : t -> int

(** {1 Simulator hooks}

    Called by {!Network.run}; user code never needs these, but they are
    exposed so alternative simulators can reuse the fault model. *)

val start : t -> n:int -> unit
(** Validate the plan against a network of [n] nodes and mark the injector
    used.  Raises [Invalid_argument] on out-of-range nodes or reuse. *)

val begin_round : t -> round:int -> unit
(** Apply every crash and link failure scheduled at (or before) [round].
    Rounds must be presented in increasing order. *)

val is_crashed : t -> int -> bool

val deliver : t -> round:int -> sender:int -> target:int -> bool
(** Should a message sent this round by [sender] to [target] be delivered?
    Checks, in order: severed link, crashed receiver, probabilistic drop —
    recording a {!Drop} event on the first rule that fires. *)

val drop_in_flight : t -> round:int -> sender:int -> target:int -> unit
(** Record the loss of an in-flight message whose receiver crashed before
    delivery. *)
