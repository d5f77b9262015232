(** Short aliases for the substrate libraries (opened by every module of
    this library). *)

module Graph = Ultraspan_graph.Graph
module Dijkstra = Ultraspan_graph.Dijkstra
module Connectivity = Ultraspan_graph.Connectivity
module Spanner = Ultraspan_spanner.Spanner
module Rng = Ultraspan_util.Rng
module Pqueue = Ultraspan_util.Pqueue
module Parallel = Ultraspan_util.Parallel
module Metrics = Ultraspan_util.Metrics
