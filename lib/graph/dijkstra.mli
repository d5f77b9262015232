(** Weighted single-source shortest paths: the library's one Dijkstra
    kernel.

    Every single-source search of the library runs here: the stretch
    checks ({!Stretch}), the greedy pass that builds the greedy baseline
    and re-checks the repair engine's candidates ([Greedy.pass]), the
    all-pairs oracles ({!Apsp}) and the weighted branch of {!balls}, the
    repair engine's dirty balls.  A spanner is given as an edge mask of
    the original graph, so the search restricts itself to the kept edges
    without materializing the subgraph.

    The search scans CSR arcs in order and keeps its scratch — distances,
    the list of reached vertices, target marks and a
    {!Ultraspan_util.Pqueue.Int} heap — per domain, grown to the largest
    graph the domain has searched.  Each search resets only what the
    previous one reached, so it costs O(touched), not O(n), and allocates
    nothing once the scratch has grown. *)

val infinity : int
(** Distance value for unreachable vertices ([max_int]). *)

val search :
  ?keep:bool array -> ?budget:int -> ?targets:int array -> Graph.t -> int -> int
(** [search g s] runs Dijkstra from [s] and returns the number of kept
    arcs it scanned (arcs of settled vertices whose edge is kept, counted
    whether or not they improved a distance).

    - [keep] (default: every edge) restricts the search to the edges [e]
      with [keep.(e)]; its length must be [Graph.m g].
    - [budget] (default: none) gives no vertex a distance above [budget].
    - [targets] stops the search as soon as every vertex of the array is
      settled; a target settled last is not expanded.  Without targets
      (an absent or empty array) the search runs until the queue is
      empty.

    Read the result with {!dist} and {!iter_reached}; it stays readable
    until the calling domain's next search.  Arcs are scanned in CSR
    order and the heap pops equal priorities in a fixed order, so the
    count is a deterministic function of the arguments.  Raises
    [Invalid_argument] on a source or target out of range or a mask of
    the wrong length. *)

val dist : int -> int
(** [dist v] is the calling domain's last search's distance to [v]: exact
    for every settled vertex (every reached vertex when the search ran
    until the queue was empty, and every target); an upper bound for a
    vertex reached but not settled when the targets stopped the search;
    {!infinity} for a vertex it did not reach, and so for every vertex
    beyond the budget. *)

val iter_reached : (int -> int -> unit) -> unit
(** [iter_reached f] calls [f v (dist v)] on every vertex the calling
    domain's last search gave a finite distance (the source first), in
    the order they were first reached. *)

val distances : ?keep:bool array -> Graph.t -> int -> int array
(** [distances g s] is a fresh array of the weighted distances from [s];
    {!infinity} when unreachable. *)

val distance : ?keep:bool array -> Graph.t -> int -> int -> int
(** Point-to-point distance; the search stops once the target is
    settled. *)

(** {2 Many balls at once} *)

type balls = {
  dists : int array;
      (** [dists.(i * Graph.n g + v)] is the distance from [sources.(i)]
          to [v] within the budget, {!infinity} outside it *)
  covered : bool array;  (** [covered.(v)]: [v] lies in some ball *)
  work : int;
      (** [Σ_i Σ_{v in ball i} (kept arcs of v + 1)]: what {!search} from
          each source reports scanned plus the vertices it reached *)
}

val balls : ?keep:bool array -> budget:int -> Graph.t -> int array -> balls
(** [balls ~budget g sources] computes, for every [i], the ball of
    [sources.(i)]: the vertices at distance at most [budget] over the kept
    edges, with their distances — exactly what [search ?keep ~budget g
    sources.(i)] reaches.  A source given twice gets two equal rows and is
    charged twice.

    When every kept edge has weight 1 the balls come from one
    multi-source bit-parallel breadth-first search (MS-BFS; Then et al.,
    PVLDB 8(4), 2014): each vertex holds one word per [Sys.int_size - 1]
    sources, a layer ORs the frontier's words across the kept arcs, and
    the bits a vertex newly gains give those sources their hop distance.
    Frontier lists keep the work proportional to the balls.  Otherwise
    each ball is one {!search}.  Distances, balls and [work] do not depend
    on the branch: a search without targets settles every vertex it
    reaches and scans each one's kept arcs once, whatever its pop order.

    [dists] and [covered] are the calling domain's scratch, grown to the
    largest [Array.length sources * Graph.n g] it has needed (and may be
    longer than that); they stay readable until the domain's next call.
    A warmed-up call allocates a constant number of words.  Raises
    [Invalid_argument] on a source out of range or a mask of the wrong
    length. *)
