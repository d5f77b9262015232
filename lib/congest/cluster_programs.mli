open! Import

(** Intra-cluster communication primitives as native CONGEST programs.

    The paper's round analyses are built from three waves over cluster
    trees: convergecast an aggregate to the root, broadcast a value back
    down, and detect each cluster's minimum boundary edge (steps (1)–(2) of
    Lemma 4.1, and the workhorse of Appendix C/D).  This module runs those
    waves as genuine message-passing programs over a given partition, so
    the test-suite can check that the {!Rounds.charge_aggregate} accounting
    formula (2·radius + 2) matches the measured protocol cost.

    Protocol: one preliminary round in which every vertex tells each
    neighbour its cluster and whether that neighbour is its tree parent
    (children discovery), then the requested wave.  Nodes are synchronized
    by round number only — no global controller.

    Every wave takes optional [?engine] / [?jobs], forwarded verbatim to
    {!Network.run} like every other native program's. *)

type partition = {
  cluster_of : int array;  (** vertex -> cluster id ([-1] not allowed here) *)
  parent : int array;  (** tree parent or -1 at roots *)
  roots : int array;  (** cluster id -> root vertex *)
}

val of_partition : Ultraspan_graph.Partition.t -> partition
(** Raises [Invalid_argument] if some vertex is unclustered. *)

val sum_to_roots :
  ?engine:Network.engine -> ?jobs:int ->
  Graph.t -> partition -> values:int array -> int array * Network.stats
(** Convergecast: per-cluster sums of the per-vertex values, delivered at
    the roots.  Measured rounds <= radius + O(1). *)

val broadcast_from_roots :
  ?engine:Network.engine -> ?jobs:int ->
  Graph.t -> partition -> values:int array -> int array * Network.stats
(** [values] is indexed by cluster; every vertex learns its cluster's
    value.  Measured rounds <= radius + O(1). *)

val min_boundary_edges :
  ?engine:Network.engine -> ?jobs:int ->
  Graph.t -> partition -> (int * int) option array * Network.stats
(** Per cluster, the minimum boundary edge as [(weight, edge id)] ([None]
    for clusters without boundary edges), delivered at the roots —
    step (2) of Lemma 4.1.  Measured rounds <= radius + O(1). *)

val reduce_to_roots :
  ?engine:Network.engine -> ?jobs:int ->
  Graph.t ->
  partition ->
  annotation:int array ->
  local:
    (Graph.t -> int -> nbr_cluster:int array -> nbr_annotation:int array ->
    int * int) ->
  merge:(int * int -> int * int -> int * int) ->
  identity:(int * int) ->
  (int * int) array * Network.stats
(** The generic wave the primitives above are built from, exposed for the
    distributed Lemma 4.1 driver ({!Ultraspan_spanner.Sf_distributed}).
    Every vertex first announces (cluster, parent?, annotation.(v)) to its
    neighbours; then [local g v ~nbr_cluster ~nbr_annotation] seeds a
    convergecast combined with [merge] up the cluster trees.  The arrays
    are per-arc ({!Graph.section-arcs}): at each arc of [v]'s own slice,
    the cluster ([-1] if none arrived) and annotation its neighbour
    announced.  The per-root results are returned (identity for
    clusterless input).  Measured rounds <= radius + O(1). *)
