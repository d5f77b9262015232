open! Import

(** Ultra-sparse spanners via the sparse-spanner reduction
    (Theorems 1.2 and 1.6).

    The reduction: build a stretch-friendly O(t')-partition with at most
    n/t' clusters (Lemma 4.1), contract it, run a sparse-spanner algorithm
    on the cluster graph, and return the partition's trees plus the pulled
    back cluster-graph spanner.  By Observation 3.5 the stretch multiplies
    by O(t'); the edge count is at most (n - 1) + (extra), where (extra) is
    the cluster-graph spanner's size.

    Because the sparse algorithm's constant s(n) is not known a priori, t'
    starts at t and doubles until (extra) <= n/t — the same "multiply t by
    a large enough constant" step as the paper's proof of Theorem 1.2, done
    adaptively.  Doubling t' adds one merging iteration, so a retry
    advances the same {!Stretch_friendly.state} once instead of rebuilding
    the partition.  The result therefore always satisfies
    |E(H)| <= n + n/t. *)

type outcome = {
  spanner : Spanner.t;
  t_inner : int;  (** the partition coarseness t' actually used *)
  partition_clusters : int;
  quotient_edges_kept : int;  (** the "extra" edges beyond the forest *)
  attempts : int;  (** doubling attempts *)
}

val run :
  ?sparse:(Graph.t -> Spanner.t) ->
  t:int ->
  Graph.t ->
  outcome
(** [run ~t g] computes a spanner with at most [n + n/t] edges.  [sparse]
    defaults to the deterministic linear-size algorithm of Theorem 1.5
    (making this Theorem 1.6); pass the randomized variant to reproduce
    Theorem 1.3.  Requires [t >= 1]. *)

val bound : n:int -> t:int -> int
(** n + n/t, the guaranteed size bound. *)
