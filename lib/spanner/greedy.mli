open! Import

(** The classic greedy (2k-1)-spanner of Althöfer et al. [ADD+93] — the
    centralized baseline against which the distributed constructions are
    compared.

    Edges are scanned in non-decreasing weight order; an edge (u,v,w) is
    kept iff the current spanner has d(u,v) > (2k-1)·w.  The output has
    girth > 2k, hence at most O(n^(1+1/k)) edges unconditionally, and its
    size is the best known for the stretch — but the algorithm is
    inherently sequential (each decision depends on all previous ones). *)

val pass : k:int -> Graph.t -> bool array -> int array -> int * int
(** [pass ~k g keep candidates] is one greedy pass: it sorts the edge ids
    [candidates] in place by ascending (weight, id), visits them in that
    order, and adds to the mask [keep] each candidate not yet kept whose
    endpoints are farther apart than [(2k-1)·w] in the kept subgraph.
    Each decision is one {!Dijkstra.search} from the candidate's smaller
    endpoint, budgeted at [(2k-1)·w] and stopped once the other endpoint
    is settled.  Returns [(added, scanned)]: the candidates added and the
    kept arcs the searches scanned.  {!run} and the repair engine's
    re-check ([Repair.apply_batch]) both run this pass. *)

val run : k:int -> Graph.t -> Spanner.t
(** Exact greedy: {!pass} over every edge of [g], from an empty mask.  One
    budgeted point-to-point search per edge, so at most
    O(m·(m + n log n)); fine up to a few thousand vertices. *)

val girth_exceeds : Graph.t -> bool array -> int -> bool
(** [girth_exceeds g keep c]: the kept subgraph has no cycle of length
    <= c (hop count).  The defining property of greedy unweighted
    (2k-1)-spanners with c = 2k; used by the tests. *)
