open! Import

(** Witness builders: attach locally checkable certificates to outputs.

    The builders are centralized (they run next to the algorithm that
    produced the artifact, where the whole graph is in memory); the
    produced labels are per-node/per-edge state that the CONGEST checker
    programs in {!Checkers} then verify distributedly. *)

(** {1 Spanner detour witnesses} *)

type spanner_witness = {
  k : int;  (** stretch parameter: the spanner claims stretch [2k-1] *)
  detour : int array array;
      (** [detour.(e)] for each non-spanner edge [e = (u,v)]: the vertex
          sequence [u, x1, ..., v] of a replacement path inside the
          spanner with at most [2k-1] hops and weight at most
          [(2k-1) * w(e)]; [[||]] for spanner edges and for non-spanner
          edges where no such path exists.  Conceptually the path is
          recorded at {e both} endpoints (the checker's far endpoint
          cross-checks its copy against the delivered walk). *)
  missing : int;
      (** Non-spanner edges with no hop-and-weight-bounded replacement
          path.  Nonzero means the local checker will reject: either the
          spanner genuinely violates the stretch bound, or it was built
          by a construction (e.g. weighted greedy) whose detours are
          weight-bounded but not hop-bounded — see the scope note. *)
}

val spanner : Graph.t -> k:int -> Spanner.t -> spanner_witness
(** Build detour witnesses by hop-bounded shortest-path search ([<= 2k-1]
    layers of budget-pruned relaxation) inside the spanner subgraph, one
    search from the lower endpoint [u] of each vertex's non-spanner
    edges.  The path recorded for an edge is its least-weight path of at
    most [2k-1] hops, with the fewest hops on ties.

    {b Early stop.}  After layer [h] the search stops when every target
    [v] of [u] has a best distance no larger than the least distance on
    the layer-[h] frontier.  This is exact: weights are non-negative, so
    every later relaxation offers at least that least distance, and an
    entry is only replaced by a strictly smaller one; the layers already
    completed are never rewritten, so each target's path and the
    [missing] count are those of the full [2k-1] layers.  Cost per
    source: at most [2k-1] layers, each relaxing the kept arcs of its
    frontier plus an O(deg u) stop test; scratch arrays are allocated
    once per call.

    {b Scope.}  The paper's cluster-based constructions (Baswana–Sen and
    its derandomization, the linear-size and ultra-sparse spanners)
    guarantee replacement paths that satisfy the hop {e and} weight bound
    simultaneously, so their witnesses are always complete; on unit
    weights any valid [(2k-1)]-spanner admits them.  A weighted spanner
    whose stretch guarantee is weight-only may yield [missing > 0] even
    when valid — use exact verification there. *)

(** {1 Certificate forest witnesses} *)

type certificate_witness = {
  ck : int;  (** connectivity parameter *)
  forest : int array;  (** edge id -> peel index [1..k], [0] = not kept *)
  parent : int array array;  (** [parent.(i-1).(v)]: parent in [F_i], -1 *)
  depth : int array array;
  root : int array array;
}

val certificate :
  Graph.t -> Certificate.t -> (certificate_witness, string) result
(** Label the certificate as a maximal-spanning-forest peeling
    [F_1 .. F_k] of the graph.  Two strategies are tried in order:

    - replay the Thurimella BFS peeling of the whole graph (bit-exact
      with {!Thurimella.certificate}) and use its forests when their
      union is exactly the certificate's edge set;
    - otherwise fall back to the Nagamochi–Ibaraki forest partition
      ({!Nagamochi_ibaraki.forests}) when its first [k] forests match,
      rooting each forest component at its minimum vertex.

    Certificates built by other means (spanner packing, KECSS) are
    generally {e not} unions of graph peelings; for those the builder
    returns [Error] and callers fall back to exact verification. *)
