(** All-pairs shortest paths.

    Small-graph oracles used by the test-suite to validate the single-source
    routines and the edge-based stretch computation against an independent
    implementation.  Distances use {!Dijkstra.infinity} for unreachable
    pairs.

    The per-source Dijkstras are independent, so the multi-source entry
    points take [?jobs] (default 1) and fan across the domain pool;
    results are identical for every job count. *)

val floyd_warshall : Graph.t -> int array array
(** O(n³), O(n²) memory — for n in the hundreds. *)

val by_dijkstra : ?jobs:int -> ?allow:(int -> bool) -> Graph.t -> int array array
(** One restricted Dijkstra per vertex. *)

val multi_source :
  ?jobs:int -> ?allow:(int -> bool) -> Graph.t -> int array -> int array array
(** [multi_source g sources] is one distance row per entry of [sources], in
    order — the parallel multi-source mode used by the table harness for
    per-component eccentricity bounds. *)

val exact_pair_stretch : ?jobs:int -> Graph.t -> bool array -> float
(** The true pairwise stretch max over u,v of d_H(u,v)/d_G(u,v) via two
    APSP computations.  The edge-based {!Stretch.max_edge_stretch} is an
    upper bound on this; the tests check the sandwich
    [exact <= edge-based]. *)

val diameter : ?jobs:int -> Graph.t -> int
(** Weighted diameter; [Dijkstra.infinity] when disconnected, 0 for
    graphs with < 2 vertices. *)
