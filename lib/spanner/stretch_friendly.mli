open! Import

(** Stretch-friendly O(t)-partitions (Definition 3.4, Lemma 4.1).

    ceil(log2 t) merging iterations: each cluster finds its minimum-weight
    boundary edge (ties by edge id — a total order, which guarantees the
    pointer graph has only 2-cycles), the pointer graph is 3-coloured in
    O(log* n) rounds (Cole–Vishkin), small clusters are maximally matched
    along pointer edges by colour sweeps, and clusters merge along their
    pointers.  Iteration i merges the clusters smaller than 2^i, so the
    output is a stretch-friendly partition whose clusters have size >= t
    (hence at most n/t clusters) and radius < 3·2^ceil(log2 t) — below 3t
    when t is a power of two and below 6t in general — in O(t log* n)
    simulated rounds.

    Exception: a cluster that swallows a whole connected component smaller
    than t has no boundary edge and stops growing; such clusters are exempt
    from the size bound (only relevant on disconnected inputs). *)

type info = {
  iterations : int;  (** merging iterations run: {!iterations} t *)
  cv_iterations : int;  (** total Cole–Vishkin colour-reduction steps *)
  rounds : Rounds.t;
}

val partition : t:int -> Graph.t -> Partition.t * info
(** Requires [t >= 1].  With [t = 1] this is the trivial partition. *)

val is_stretch_friendly : Graph.t -> Partition.t -> bool
(** Exact check of Definition 3.4: for every boundary edge {u∉C, v∈C} of
    weight w, all edges on v's tree path to the root weigh <= w; for every
    inside edge {u,v∈C} of weight w, all edges on the tree path between u
    and v weigh <= w. *)

val is_stretch_friendly_subset :
  Graph.t -> Partition.t -> consider:(int -> bool) -> bool
(** Like {!is_stretch_friendly}, but only the edges with [consider id]
    count as boundary/inside edges (tree paths are always the partition's
    trees).  Lemma 3.1 asserts the property for the {e alive} edges of a
    Baswana–Sen state, which is what {!is_stretch_friendly_alive} checks. *)

val is_stretch_friendly_alive : Graph.t -> Bs_core.t -> bool

val min_boundary_edges : Graph.t -> int array -> int -> int array
(** [min_boundary_edges g cluster_of nc]: for each cluster [c < nc] of a
    complete assignment ([0 <= cluster_of.(v) < nc]), the id of its
    minimum boundary edge in (weight, edge id) order, or [-1] when it has
    none — step (2) of every merging iteration, exposed for tests. *)

type merge_strategy = Matched | Naive_star
(** Ablation knob: [Matched] is Lemma 4.1's matching-based merge;
    [Naive_star] skips the matching and merges every small cluster straight
    into its pointer target, which can chain merges and blow up the radius
    (the bench's A2 ablation measures this). *)

val partition_with_strategy :
  strategy:merge_strategy -> t:int -> Graph.t -> Partition.t * info

val iterations : int -> int
(** ceil(log2 t), the merging iterations of a [~t] partition.  Requires
    [t >= 1]. *)

(** {2 The resumable iteration}

    Iteration i depends only on i and the partition before it, so
    [partition ~t:(2t)] is [partition ~t] advanced once more. *)

type state

val start : strategy:merge_strategy -> Graph.t -> state
(** Singleton clusters, no iteration run yet. *)

val advance : state -> unit
(** One merging iteration, steps (1)–(4) computed centrally. *)

val result : state -> Partition.t * info
(** Later iterations leave the returned values unchanged. *)

val small : state -> size:int array -> succ:int array -> int -> bool
(** Cluster [c] may merge in the iteration under way: [size.(c) < 2^i]
    and [succ.(c) >= 0]. *)

val merge :
  state ->
  size:int array ->
  out_eid:int array ->
  succ:int array ->
  mate:int array ->
  cv_iterations:int ->
  unit
(** Step (5), the merge rules of Lemma 4.1, given steps (1)–(4) per
    cluster: size, minimum boundary edge, pointer target and matching
    partner ([-1] for none).  Commits the iteration and charges its rounds
    with [cv_iterations] Cole–Vishkin steps.  {!Sf_distributed} gathers
    the inputs with waves. *)
