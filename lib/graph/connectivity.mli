(** Connected components and basic connectivity predicates. *)

val components : Graph.t -> int array * int
(** [(comp, count)]: component label per vertex (labels are [0 .. count-1],
    assigned in order of smallest member vertex). *)

val is_connected : Graph.t -> bool

val same_component : Graph.t -> int -> int -> bool

val spans : Graph.t -> bool array -> bool
(** [spans g keep] is [true] iff the subgraph of the kept edges has exactly
    the same connected components as [g] (i.e. it is a spanning subgraph in
    the connectivity sense, the "skeleton" property of the paper). *)
