open! Import

(** Derandomized Baswana–Sen (Lemma 3.3 / Theorem 1.4).

    Each iteration's cluster-sampling is chosen deterministically by the
    method of conditional expectations applied to the paper's utility
    functions (3.1) (weighted) and (3.2) (unweighted), evaluated under
    independent sampling with probability p/4.  Substitution note (see
    DESIGN.md §3): we fix the sampling indicators X_j one cluster at a time
    with exact closed-form conditional expectations, instead of fixing the
    seed bits of the Gopalan–Yehudayoff distribution; this realizes the
    identical guarantees of Lemma 3.3 in polynomial time.

    Evaluator cost per iteration: fixing X_j evaluates only j's members
    and the vertices adjacent to j.  (3.2) is kept incrementally in closed
    form, O(Σ_v deg v): a fixed cluster multiplies by exactly 1.0 or 0.0,
    so a term depends only on q_own and the count u of unfixed entries,
    via (1 - p/4)^u tabulated as the entry walk's own left fold; choices
    are bit-identical to the walk.  (3.1) keeps the O(deg v) walk, since
    its prefix sums must not be reordered.  Two constants
    deviate from the paper's prose, whose stated values are inconsistent
    with its own p/4 sampling rate: the high-degree threshold is
    ξ = 40·ln n / p (paper: 10·ln n / p) and the unweighted ignore
    threshold is τ = 4·ln g / p (paper: ln g / p); both only affect
    constants in the O(·) bounds.

    Deterministic guarantees, asserted by the implementation after every
    iteration (Lemma 3.3 (1)–(3)):
    - at most [8·n/p] spanner edges per iteration on weighted graphs, and
      at most [8·n·ln(g)/(p·g)] edges from dying high-adjacency vertices on
      unweighted ones;
    - at most [n·p^i] clusters after iteration i;
    - no vertex with ξ or more adjacent clusters ever dies. *)

type mode = Weighted | Unweighted

type ordering =
  | Simple
      (** fix clusters in id order; rounds are charged by the Appendix C
          formula without materializing the network decomposition *)
  | Network_decomposition
      (** group the fixing by colour classes of an actual decomposition of
          the cluster graph's square, as in Appendix C (slower; exercised
          by the tests to demonstrate fidelity) *)

type guarantee = {
  iteration : int;  (** 1-based within the simulated run *)
  cluster_bound : int;  (** floor(n0 · p^i) *)
  clusters : int;
  edge_bound : float;
  edges_added : int;
  high_degree_died : int;  (** must be 0 *)
}

val simulate :
  ?mode:mode ->
  ?ordering:ordering ->
  state:Bs_core.t ->
  p:float ->
  iters:int ->
  rounds:Rounds.t ->
  unit ->
  guarantee list
(** Lemma 3.3: deterministically simulate [iters] iterations of Baswana–Sen
    with sampling probability [p] on [state].  [mode] defaults to
    [Unweighted] iff the graph has unit weights.  Raises [Assert_failure]
    if a guarantee is violated (which would be a bug, not bad luck — there
    is no randomness left). *)

type outcome = {
  spanner : Spanner.t;
  guarantees : guarantee list;
}

val run : ?ordering:ordering -> ?k:int -> Graph.t -> outcome
(** Theorem 1.4: the deterministic (2k-1)-spanner.  [k] defaults to
    [ceil(log2 n)].  Runs k-1 derandomized iterations with p = n^(-1/k)
    followed by the deterministic finishing iteration. *)

val size_bound : n:int -> k:int -> weighted:bool -> float
(** Deterministic size bound with the implementation's constants:
    weighted [8nk/p + n^(1+1/k)]; unweighted
    [n(k-1) + 4·n·ln(k)/p + 8·n·ln(k)/p + n^(1+1/k)] — see the module
    comment for where each term comes from. *)
