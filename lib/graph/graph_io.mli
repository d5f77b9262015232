(** Plain-text edge-list serialization.

    Format: first line [n m], then [m] lines [u v w].  Lines starting with
    [#] are comments.  Round-trips through {!Graph.of_edges}, so parallel
    edges collapse and ids are renumbered canonically.

    Both readers reject a vertex count above {!max_vertices} before
    anything of that size is allocated. *)

val max_vertices : int
(** [2^24]: 16 times the largest graph any workload or table builds.  A
    header naming more vertices raises
    [Failure "Graph_io: vertex count N exceeds the cap of 16777216"]. *)

val to_channel : out_channel -> Graph.t -> unit

val of_channel : in_channel -> Graph.t
(** Raises [Failure] on malformed input. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t

val save : string -> Graph.t -> unit
(** Write to a file path. *)

val load : string -> Graph.t

(** {1 DIMACS}

    The classic DIMACS shortest-path format: a line [p sp n m], then [m]
    lines [a u v w] with 1-based vertices (written symmetrically; on input
    each undirected edge may appear once or twice — duplicates merge). *)

val to_dimacs : Graph.t -> string

val of_dimacs : string -> Graph.t
(** Raises [Failure] on malformed input. *)

val save_dimacs : string -> Graph.t -> unit

val load_dimacs : string -> Graph.t
