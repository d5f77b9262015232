open! Import

(** Common result type and validation for spanner algorithms.

    Every construction in this library returns a {!t}: a mask over the input
    graph's edge ids plus the simulated CONGEST round account.  Validation
    (subgraph, spanning, stretch) is shared here and exercised heavily by
    the test-suite. *)

type t = {
  keep : bool array;  (** edge id -> kept in the spanner *)
  rounds : Rounds.t;  (** simulated round account *)
}

val of_eids : Graph.t -> ?rounds:Rounds.t -> int list -> t

val empty : Graph.t -> t

val size : t -> int
(** Number of kept edges. *)

val total_rounds : t -> int

val eids : t -> int list

val union : t -> t -> t
(** Edge-wise union; round accounts are summed (sequential composition). *)

val mem : t -> int -> bool

val weight : Graph.t -> t -> int
(** Total weight of kept edges. *)

val lightness : Graph.t -> t -> float
(** Total kept weight divided by the minimum spanning forest weight of the
    input — the standard "lightness" measure of spanner quality.
    [nan] on edgeless graphs. *)

val is_spanning : Graph.t -> t -> bool
(** Kept edges preserve the connected components of the input ("skeleton"
    property). *)

val max_stretch : Graph.t -> t -> float
(** Exact stretch (see {!Ultraspan_graph.Stretch.max_edge_stretch}). *)

val validate : Graph.t -> t -> alpha:float -> (unit, string) result
(** Spanning + stretch <= alpha. *)
