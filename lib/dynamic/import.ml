(** Short aliases for the substrate libraries (opened by every module of
    this library). *)

module Graph = Ultraspan_graph.Graph
module Connectivity = Ultraspan_graph.Connectivity
module Stretch = Ultraspan_graph.Stretch
module Dijkstra = Ultraspan_graph.Dijkstra
module Faults = Ultraspan_congest.Faults
module Rounds = Ultraspan_congest.Rounds
module Spanner = Ultraspan_spanner.Spanner
module Bs_derand = Ultraspan_spanner.Bs_derand
module Greedy = Ultraspan_spanner.Greedy
module Certificate = Ultraspan_certificate.Certificate
module Thurimella = Ultraspan_certificate.Thurimella
module Kecss = Ultraspan_certificate.Kecss
module Resilience = Ultraspan_certificate.Resilience
module Util = Ultraspan_util
module Rng = Ultraspan_util.Rng
module Parallel = Ultraspan_util.Parallel
module Verify = Ultraspan_verify.Verify
module Eps_far = Ultraspan_verify.Eps_far
