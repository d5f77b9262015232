open! Import

(** Compiled distance-oracle artifacts ([ultraspan-oracle/1]).

    A built spanner is a verified, expensive-to-produce object; this module
    turns it into a {e servable} one: {!compile} freezes the kept subgraph
    into CSR adjacency plus per-cluster shortest-path-tree metadata, and
    {!save}/{!load} round-trip the whole thing through a compact versioned
    binary file with a deterministic header and checksum, so a query
    process never rebuilds (or re-verifies) the spanner it answers from.

    The on-disk layout is a fixed-width word format (64-bit little-endian
    words throughout):

    {v
    bytes 0..7   magic "USPANORC"
    words 0..6   version=1, n, m (spanner edges), orig_m, k, clusters,
                 fnv1a-64 checksum of the payload bytes
    payload      edge list in id order (u, v, w per edge — the canonical
                 sorted order of Graph construction, so ids round-trip),
                 orig_eid[m], comp[n], parent[n], parent_eid[n],
                 depth_w[n], root[clusters]
    v}

    {!load} reads the payload into a single off-heap [Bigarray] arena (the
    PR 8 payload-arena idiom) and takes zero-copy sub-views for the
    metadata vectors; the graph itself is reconstructed with
    {!Graph.of_edge_iter} streaming straight out of the arena, so the peak
    transient is the arena plus the CSR being built — no tuple lists.
    Every load validates magic, version, header ranges, the checksum and
    the cluster trees against the graph, and raises [Failure] with a
    one-line diagnostic on truncated, corrupt or self-contradictory files
    (the CLI turns that into exit 1). *)

val schema : string
(** ["ultraspan-oracle/1"]. *)

type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  k : int;  (** stretch parameter: answers are within [2k-1] of d_G *)
  orig_m : int;  (** edge count of the graph the spanner was built on *)
  graph : Graph.t;
      (** the spanner as a standalone graph: same vertex set as the input,
          exactly the kept edges (original weights), ids renumbered in
          canonical sorted order *)
  orig_eid : ivec;  (** spanner edge id -> edge id in the input graph *)
  clusters : int;  (** connected components of the spanner *)
  comp : ivec;  (** vertex -> cluster id in [0 .. clusters-1] *)
  root : ivec;  (** cluster id -> root vertex (minimum vertex, length [clusters]) *)
  parent : ivec;  (** vertex -> parent towards the cluster root; [-1] at roots *)
  parent_eid : ivec;  (** spanner edge id of the parent edge; [-1] at roots *)
  depth_w : ivec;  (** weighted distance to the cluster root in the spanner *)
}

val compile : Graph.t -> k:int -> Spanner.t -> t
(** Compile a built spanner against its input graph: extract the kept
    subgraph ({!Graph.sub_with_mapping}), label clusters, and grow one
    shortest-path tree per cluster (a single multi-source Dijkstra seeded
    at every cluster root).  Deterministic: equal inputs give equal
    oracles.  Raises [Invalid_argument] on [k < 1] or a mask/graph
    mismatch. *)

val n : t -> int
val m : t -> int
(** Vertex / kept-edge counts of the compiled spanner. *)

val tree_bound : t -> int -> int -> int
(** [tree_bound o s t] is the weight of the s->root->t path through the
    cluster tree — an upper bound on the spanner distance used to bound
    the query engine's bidirectional search — or [Dijkstra.infinity] when
    the endpoints live in different clusters. *)

val checksum : t -> int64
(** The FNV-1a checksum {!save} writes (a pure function of the artifact). *)

val save : string -> t -> int
(** Write the binary artifact; returns the byte size written. *)

val load : string -> t
(** Read an artifact back.  Raises [Failure] with a one-line diagnostic on
    a truncated, corrupt or wrong-version file (bad magic, short payload,
    checksum mismatch, out-of-range structure), and — in O(n + m) — on
    cluster trees that contradict the graph: a spanner edge joining two
    clusters, a root outside its cluster or at nonzero depth, a non-root
    whose [parent_eid] does not join it to its [parent], a parent chain
    that does not reach its root, or a [depth_w] that is not the parent's
    plus the parent edge's weight.  Such a file could pass the checksum
    and still make {!tree_bound} undercut real distances. *)

val equal : t -> t -> bool
(** Structural equality: parameters, graph (vertices, edges, weights, ids)
    and every metadata vector.  What the round-trip tests assert. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: n, edges, clusters, k. *)
