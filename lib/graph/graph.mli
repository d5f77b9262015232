(** Undirected weighted graphs in compressed-sparse-row form.

    This is the substrate every algorithm in the library operates on.
    Design points:

    - Vertices are [0 .. n-1].  Edges carry non-negative integer weights
      (the paper assumes poly(n)-bounded weights; unweighted graphs use
      weight 1 everywhere).
    - Every edge has a stable integer id in [0 .. m-1].  Spanner and
      certificate algorithms return sets of edge ids of the input graph,
      which makes "is the output a subgraph" trivially true by construction
      and lets distinct algorithms be compared edge-for-edge.
    - The structure is immutable after construction.  Self-loops are
      rejected; parallel edges are merged keeping the minimum weight. *)

type edge = { u : int; v : int; w : int; id : int }
(** Canonical representation: [u < v], [w >= 0]. *)

type t

(** {1 Construction} *)

val of_edges : n:int -> (int * int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices from
    [(u, v, weight)] triples.  Orientation of the pairs is irrelevant.
    Raises [Invalid_argument] on out-of-range endpoints, self-loops, or
    negative weights.  Parallel edges are merged (minimum weight kept).
    Edge ids follow the canonical (u, v) order, u < v, sorted by an int
    merge sort in O(m log m). *)

val of_edge_array : n:int -> (int * int * int) array -> t

val of_edge_iter : n:int -> ((int -> int -> int -> unit) -> unit) -> t
(** [of_edge_iter ~n iter] builds the same graph as {!of_edge_array}
    without ever materializing the triples: [iter f] must call
    [f u v w] once per edge, and must be {e replayable} — the stream is
    consumed twice (a counting pass, then a scatter pass) and must
    produce the identical sequence both times (checked; a mismatch
    raises [Invalid_argument]).  Peak auxiliary memory is two int arrays
    of the stream length, so n=10^6..10^7 topologies build within
    memory where a tuple list would not.  Validation, parallel-edge
    merging (minimum weight) and edge-id assignment match
    {!of_edge_array} exactly: the result is structurally equal. *)

val empty : int -> t
(** Graph with [n] vertices and no edges. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> edge array
(** All edges, indexed by id.  Do not mutate. *)

val edge : t -> int -> edge
(** Edge by id. *)

val weight : t -> int -> int
(** Weight of the edge with the given id. *)

val endpoints : t -> int -> int * int
(** [(u, v)] with [u < v]. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g eid x] is the endpoint of edge [eid] that is not [x]. *)

val degree : t -> int -> int

val max_degree : t -> int

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f neighbor edge_id] for every incident edge,
    in increasing neighbour order (see {!section-arcs}). *)

val fold_adj : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a

val neighbors : t -> int -> (int * int) list
(** [(neighbor, edge_id)] pairs, sorted by neighbour. *)

(** {1:arcs Arc-level access}

    Each undirected edge appears as two {e arcs} in the CSR index; arcs
    are addressed by their CSR position.  The arcs of vertex [v] occupy
    [off.(v) .. off.(v+1) - 1] of the {!csr} view, and within that range
    destinations are {e strictly increasing} (a construction invariant of
    {!of_edges}).  This access exists for performance-critical code —
    the CONGEST simulator's slot-based message plane maps the message
    [s -> t] to the arc [t -> s], a dense per-inbox slot — and for
    O(log deg) adjacency queries. *)

val arc_count : t -> int
(** [2 m]: total number of arcs. *)

val arc_index : t -> int -> int -> int
(** [arc_index g v u] is the position of the arc [v -> u], or [-1] when
    [u] is not adjacent to [v].  O(log deg v) binary search; allocation
    free (the hot-path variant of {!find_edge}). *)

type csr = {
  off : int array;  (** arc range of vertex [v] is [off.(v) .. off.(v+1)-1] *)
  dst : int array;  (** arc destination *)
  eid : int array;  (** arc edge id *)
  rev : int array;  (** position of the reverse arc *)
}

val csr : t -> csr
(** Zero-copy view of the live CSR arrays, for tight inner loops that
    cannot afford a call per arc.  The arrays are the graph's own — treat
    them as read-only. *)

val iter_edges : t -> (edge -> unit) -> unit

val total_weight : t -> int

val is_unit_weighted : t -> bool
(** All weights equal to 1. *)

val find_edge : t -> int -> int -> int option
(** Edge id joining the two vertices, if present.  O(log min-degree)
    binary search over the sorted adjacency slice. *)

val mem_edge : t -> int -> int -> bool

(** {1 Derived graphs} *)

val with_unit_weights : t -> t
(** Same topology and the same edge ids, all weights 1. *)

val with_weights : t -> (int -> int) -> t
(** [with_weights g f] reweights edge [id] to [f id] (same ids). *)

val sub_by_eids : t -> bool array -> t
(** [sub_by_eids g keep] is the spanning subgraph on the same vertex set
    keeping exactly the edges with [keep.(id) = true].  Edge ids in the
    result are renumbered in ascending original-id order; use
    {!sub_with_mapping} if the mapping is needed. *)

val sub_with_mapping : t -> bool array -> t * int array
(** Like {!sub_by_eids}, but also returns the map from new edge ids to the
    original ids (new id [i] corresponds to original edge [map.(i)]).  Used
    by the certificate algorithms, which peel spanners off shrinking
    subgraphs and must translate the result back.  O(n + m), no sort: the
    kept records are already canonical, so the result equals
    [of_edge_array] over the kept (u, v, w) triples. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** One-line summary: [n] vertices, [m] edges, weight range. *)
