(** Cluster-graph contraction (the r-cluster-graph of Section 2).

    Given a clustering of a base graph, the quotient graph has one vertex
    per cluster and, for each pair of adjacent clusters, one edge whose
    weight is the minimum base-edge weight between them.  Each quotient edge
    remembers a representative base edge, so edge sets computed on the
    quotient pull back to the base graph — this is how spanners of
    cluster graphs become spanners of the original graph in Theorems 1.2
    and 1.5. *)

type t = {
  base : Graph.t;
  quotient : Graph.t;
  cluster_of : int array;  (** base vertex -> quotient vertex, or -1 *)
  repr_eid : int array;    (** quotient edge id -> base edge id *)
}

val make : Graph.t -> Partition.t -> t
(** Contract the clusters of the partition.  Unclustered vertices are
    dropped from the quotient.  Intra-cluster edges disappear. *)

val of_cluster_of : ?allow:(int -> bool) -> Graph.t -> int array -> int -> t
(** [of_cluster_of g cluster_of count]: contraction from a raw assignment
    ([-1] = dropped); clusters need not be connected here.  [allow eid]
    restricts which base edges induce quotient edges (default: all) — the
    linear-size spanner uses this to drop the edges already "dead" in the
    Baswana–Sen sense.

    The representative of a cluster pair is its lightest base edge, the
    smallest edge id among equally light ones.  O(n + m + count) on flat
    int arrays: two stable counting passes sort the inter-cluster edge ids
    by (smaller cluster, larger cluster, id), one scan keeps a
    representative per run, and the quotient is built from that already
    canonical sequence.  The temporaries live in a per-domain scratch, so
    [allow] must not itself call [of_cluster_of].  Raises
    [Invalid_argument] on a length mismatch or a cluster id outside
    [-1 .. count-1]. *)

val pull_back : t -> int list -> int list
(** Map quotient edge ids to their representative base edge ids. *)
