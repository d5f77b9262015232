open! Import

(** Compiled distance-oracle artifacts ([ultraspan-oracle/2]).

    A built spanner is a verified, expensive-to-produce object; this module
    turns it into a {e servable} one: {!compile} freezes the kept subgraph
    into CSR adjacency plus per-vertex cluster labels, and
    {!save}/{!load} round-trip the whole thing through a compact versioned
    binary file with a deterministic header and checksum, so a query
    process never rebuilds (or re-verifies) the spanner it answers from.

    The on-disk layout is a fixed-width word format (64-bit little-endian
    words throughout):

    {v
    bytes 0..7   magic "USPANORC"
    words 0..6   version=2, n, m (spanner edges), orig_m, k, clusters,
                 fnv1a-64 checksum of the payload bytes
    payload      edge list in id order (u, v, w per edge — the canonical
                 sorted order of Graph construction, so ids round-trip),
                 orig_eid[m], comp[n]
    v}

    {!load} reads the payload into a single off-heap [Bigarray] arena (the
    payload-arena idiom) and takes zero-copy sub-views for the metadata
    vectors; the graph itself is reconstructed with {!Graph.of_edge_iter}
    streaming straight out of the arena, so the peak transient is the arena
    plus the CSR being built — no tuple lists.  Every load validates magic,
    version, header ranges against the file size, the checksum and the
    cluster labels against the graph, and raises [Failure] with a one-line
    diagnostic on truncated, corrupt or self-contradictory files (the CLI
    turns that into exit 1). *)

val schema : string
(** ["ultraspan-oracle/2"]. *)

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
  comp : ivec;
      (** vertex -> cluster id in [0 .. clusters-1]; lets the engine answer
          cross-cluster pairs unreachable without a search *)
}

val compile : Graph.t -> k:int -> Spanner.t -> t
(** Compile a built spanner against its input graph: extract the kept
    subgraph ({!Graph.sub_with_mapping}) and label its clusters.
    Deterministic: equal inputs give equal oracles.  Raises
    [Invalid_argument] on [k < 1] or a mask/graph mismatch. *)

val n : t -> int
val m : t -> int
(** Vertex / kept-edge counts of the compiled spanner. *)

val checksum : t -> int64
(** The FNV-1a checksum {!save} writes (a pure function of the artifact). *)

val save : string -> t -> int
(** Write the binary artifact; returns the byte size written. *)

val load : string -> t
(** Read an artifact back.  Raises [Failure] with a one-line diagnostic on
    a truncated, corrupt or wrong-version file (bad magic, header counts
    the file size cannot hold, short payload, checksum mismatch,
    out-of-range structure), and — in O(m) — on a spanner edge joining two
    clusters.  Such a file could pass the checksum and still make the
    engine answer unreachable for a connected pair.  The counts are
    checked against the file size before any allocation, so a hostile
    header cannot make the reader over-allocate. *)

val equal : t -> t -> bool
(** Structural equality: parameters, graph (vertices, edges, weights, ids)
    and every metadata vector.  What the round-trip tests assert. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: n, edges, clusters, k. *)
