(** Stretch measurement for spanners.

    The stretch of a subgraph H w.r.t. G is max over u,v of
    d_H(u,v)/d_G(u,v).  A standard fact makes this computable edge-by-edge:
    the maximum is attained on an *edge* of G, because any shortest G-path
    is a concatenation of edges and each edge's detour in H bounds the
    path's detour.  So we only ever evaluate d_H(u,v)/w(u,v) over the edges
    (u,v,w) of G.

    The per-vertex checks are independent, so every verifier takes [?jobs]
    (default 1) and fans them across the domain pool.  Results are
    bit-identical for every job count. *)

val max_edge_stretch : ?jobs:int -> Graph.t -> bool array -> float
(** [max_edge_stretch g keep] is the exact stretch of the spanning subgraph
    given by the edge mask [keep].  [Float.infinity] if some edge's
    endpoints are disconnected in the subgraph.  Cost: one restricted
    Dijkstra per vertex that has at least one dropped incident edge, each
    stopping as soon as the vertex's relevant neighbors are settled. *)

val sampled_edge_stretch :
  ?jobs:int ->
  rng:Ultraspan_util.Rng.t ->
  samples:int ->
  Graph.t ->
  bool array ->
  float
(** Lower bound on the stretch from a random sample of vertices (runs the
    per-vertex check for [samples] random vertices).  Used at bench scale
    where the exact check is too slow; the tests always use the exact
    version.  The sample sequence is drawn from [rng] up front, so the
    result does not depend on [jobs]. *)

val check_stretch : ?jobs:int -> Graph.t -> bool array -> float -> bool
(** [check_stretch g keep alpha] iff the subgraph is an alpha-spanner. *)

val mean_edge_stretch : ?jobs:int -> Graph.t -> bool array -> float
(** Average (not max) stretch over edges of [g]; infinity as above. *)
