open! Import

(** The Baswana–Sen iteration engine (Section 3 of the paper).

    One value of type {!t} tracks the full state of a Baswana–Sen run:
    which vertices and edges are alive, the current partition of the alive
    vertices into clusters with rooted trees (radius <= completed
    iterations), and the spanner built so far.  The engine is shared by the
    randomized algorithm ({!Baswana_sen}), the derandomized one
    ({!Bs_derand}) and the linear-size phases ({!Linear_size}): they differ
    only in how the per-iteration [sampled] vector is chosen, which is
    exactly the paper's point — Lemma 3.1's guarantees are deterministic
    "regardless of the way we sample clusters".

    Iteration semantics follow Section 3 steps (1)–(3) precisely, with ties
    among equal-weight edges broken by edge id (a fixed total order, needed
    for determinism). *)

type t

type adjacency = {
  off : int array;  (** vertex [v]'s row is [off.(v) .. off.(v + 1) - 1] *)
  w : int array;  (** entry weight *)
  eid : int array;  (** entry edge id *)
  cluster : int array;  (** entry cluster *)
}
(** Per-vertex sorted rows of (weight, eid, cluster) entries: the minimum
    alive edge into each adjacent cluster, ascending by (weight, eid).
    Empty for dead vertices.  A vertex's own cluster appears if it has an
    alive edge into it.  The arrays may be longer than the rows use. *)

type iteration_stats = {
  edges_added : int;
  died : int;
  joined : int;
  high_degree_died : int;  (** died with >= threshold adjacent clusters *)
  death_edges_above_tally : int;
      (** edges contributed by dying vertices whose adjacent-cluster count
          is >= the [tally_death_threshold] argument (the τ-nodes of the
          unweighted utility (3.2)) *)
  sampled_clusters : int;
  max_adjacent : int;
}

val create : Graph.t -> t
(** Fresh state: everything alive, trivial partition (one singleton cluster
    per vertex), empty spanner, zero completed iterations. *)

val graph : t -> Graph.t

val n_clusters : t -> int

val completed_iterations : t -> int

val cluster_of : t -> int array
(** Current cluster per vertex ([-1] dead).  Do not mutate. *)

val roots : t -> int array

val adjacency : t -> adjacency
(** Compute the per-vertex adjacent-cluster structure of the current state
    (an O(m + n log n) scan).  Only unsampled-cluster vertices consult it
    during an iteration, but it is defined for every alive vertex.  The
    rows live in a per-domain scratch: they are valid until the next
    [adjacency], {!iteration} or {!finish} call in the same domain. *)

val iteration :
  ?adjacency:adjacency ->
  ?high_degree_threshold:int ->
  ?tally_death_threshold:int ->
  t ->
  sampled:bool array ->
  iteration_stats
(** Execute one iteration with the given sampling decisions (length
    {!n_clusters}).  All reads are against the pre-iteration snapshot, as
    in the synchronous distributed algorithm.  Passing [adjacency] avoids
    recomputing it when the caller (the derandomizer) already has it. *)

val finish : t -> iteration_stats
(** The last iteration: nothing sampled, so every remaining vertex dies and
    contributes its minimum edge per adjacent cluster. *)

val spanner_mask : t -> bool array
(** The spanner so far (live reference; treat as read-only). *)

val partition : t -> Partition.t
(** Current clustering of the alive vertices, with its rooted trees.  The
    trees' edges are already in the spanner (they were added as join
    edges). *)

val alive_quotient : t -> Contraction.t
(** Contract the current clusters, keeping only alive inter-cluster edges
    (dead edges already have their stretch certified by Lemma 3.1 and are
    dropped from further consideration, as in Theorem 1.5's proof). *)

val edge_alive : t -> int -> bool

val vertex_alive : t -> int -> bool

val death_iteration : t -> int array
(** Per edge, the iteration (1-based) in which it died; [-1] if still
    alive.  Lemma 3.1 promises that an edge dead since iteration i has
    spanner stretch at most 2i-1 — the tests check exactly that. *)
