open! Import

(** Deterministic weak-diameter network decomposition.

    A (Q, D) network decomposition partitions the vertices into clusters,
    each coloured with one of Q colours, such that clusters of the same
    colour are non-adjacent and each cluster has (weak) diameter at most D.
    The paper consumes decompositions of G^2 — same-colour clusters at
    distance >= 3 — to let the conditional-expectation derandomization fix
    all clusters of one colour class in parallel (Appendix C, Theorem C.1,
    citing Rozhoň–Ghaffari [RG20]).

    Substitution (see DESIGN.md §3): instead of reproducing RG20, we build
    the decomposition by deterministic sequential ball carving in the full
    graph (weak diameter: balls may pass through already-clustered
    vertices).  Balls grow while their eligible population keeps doubling
    w.r.t. a (separation-1)-hop margin, so radii are
    O(separation · log n); the deferred margin is at most the ball, so each
    colour clusters at least half of what remains and O(log n) colours
    suffice.  All consumers rely only on the (Q, D, separation) properties,
    which the tests check, and the round accounting charges the RG20
    polylog bound. *)

type t = {
  cluster_of : int array;  (** vertex -> cluster id (total: a partition) *)
  color_of_cluster : int array;  (** cluster id -> colour *)
  center : int array;  (** cluster id -> ball center *)
  radius : int array;  (** cluster id -> ball radius (hops, in G) *)
  n_colors : int;
}

val decompose : ?separation:int -> Graph.t -> t
(** [decompose ~separation g]: same-colour clusters are at pairwise hop
    distance >= [separation] (default 2 = ordinary decomposition, i.e.
    same-colour clusters non-adjacent; the paper's Appendix C uses 3).
    Requires [separation >= 2].  Works on disconnected graphs. *)

val n_clusters : t -> int

val max_cluster_radius : t -> int

val validate : Graph.t -> separation:int -> t -> (unit, string) result
(** Checks: partition; clusters connected with the stated center/radius;
    same-colour clusters at hop distance >= separation. *)

val rounds_bound : Graph.t -> int
(** The round cost charged for building the decomposition, following the
    RG20 accounting: O(log^6 n) — we charge [ceil (log2 n)^6 / 16] with a
    floor of 1, a concrete monotone stand-in used consistently across the
    bench harness. *)
