(** Imperative binary min-heap priority queue.

    Used by Dijkstra, Prim and the clustering growers.  Priorities are
    compared with a user-supplied total order fixed at creation time; ties
    are broken arbitrarily (but deterministically for a fixed insertion
    sequence, which keeps the whole library reproducible). *)

type ('p, 'a) t
(** A queue of values of type ['a] keyed by priorities of type ['p]. *)

val create : ?capacity:int -> cmp:('p -> 'p -> int) -> unit -> ('p, 'a) t
(** Fresh empty queue.  [cmp] must be a total order; the minimum element
    under [cmp] is served first. *)

val length : ('p, 'a) t -> int

val is_empty : ('p, 'a) t -> bool

val push : ('p, 'a) t -> 'p -> 'a -> unit
(** Insert a value with the given priority.  O(log n). *)

val peek : ('p, 'a) t -> ('p * 'a) option
(** Minimum element, without removing it.  O(1). *)

val pop : ('p, 'a) t -> ('p * 'a) option
(** Remove and return the minimum element.  O(log n). *)

val pop_exn : ('p, 'a) t -> 'p * 'a
(** Like {!pop} but raises [Invalid_argument] on an empty queue. *)

val clear : ('p, 'a) t -> unit
(** Remove all elements, keeping the allocated storage. *)

(** Monomorphic heap with [int] priorities and [int] payloads, for hot
    loops: no closure call per comparison and no allocation per pop.  Its
    sift functions are copies of the polymorphic ones, so a sequence of
    pushes, pops and clears pops exactly the (priority, payload) pairs, in
    exactly the order, that [create ~cmp:compare ()] would. *)
module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Fresh empty queue; storage grows by doubling past [capacity]
      (default 16). *)

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> int -> int -> unit
  (** [push t p x] inserts payload [x] at priority [p].  O(log n). *)

  val min_prio : t -> int
  (** Priority of the minimum element.  Raises [Invalid_argument] when
      empty. *)

  val pop : t -> int
  (** Remove the minimum element and return its payload (read
      {!min_prio} first for its priority).  Raises [Invalid_argument] when
      empty.  O(log n). *)

  val clear : t -> unit
  (** Remove all elements, keeping the allocated storage. *)
end
