(** Girth of unweighted graphs.

    The greedy (2k-1)-spanner of [ADD+93] is characterized by girth > 2k,
    which (by the Bondy–Simonovits moore bound) caps its size at
    O(n^(1+1/k)); this module makes that property directly measurable. *)

val girth : Graph.t -> int
(** Length of the shortest cycle (hop count); [max_int] for forests.
    BFS from every vertex: O(n·m). *)
