(** Weighted single-source shortest paths: the library's one Dijkstra
    kernel.

    Every single-source search of the library runs here: the stretch
    checks ({!Stretch}), the greedy pass that builds the greedy baseline
    and re-checks the repair engine's candidates ([Greedy.pass]), the
    repair engine's dirty balls and the all-pairs oracles ({!Apsp}).  A
    spanner is given as an edge mask of the original graph, so the search
    restricts itself to the kept edges without materializing the
    subgraph.

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
