open! Import

(** The stretch-friendly partition of Lemma 4.1 with all communication
    executed as message-passing waves on the CONGEST simulator.

    Where {!Stretch_friendly} simulates centrally and only *accounts*
    rounds, this driver obtains every piece of cross-cluster information by
    actually running a wave on {!Ultraspan_congest.Network} (via
    {!Ultraspan_congest.Cluster_programs}) and sums the *measured* rounds:

    - cluster sizes: one convergecast wave;
    - minimum boundary edges and successor ids: convergecast waves;
    - each Cole–Vishkin step: a broadcast of the current colour plus a
      relay wave fetching the successor cluster's colour;
    - each matching sweep: a proposal relay (broadcast of the proposer's
      out-edge id, minimum-proposal convergecast at the target) and an
      acceptance relay back;
    - the merge commit: a broadcast of the new cluster ids over the merged
      trees.

    Between waves the driver applies {!Coloring.Steps} and then the
    centralized implementation's step (5) itself, {!Stretch_friendly.merge},
    on a {!Stretch_friendly.state}, standing in for root-local computation
    on the wave-delivered values.  The output partition is identical to
    {!Stretch_friendly.partition} (same deterministic tie-breaking), which
    the tests check, and the measured total stays O(t log* n) rounds. *)

type outcome = {
  partition : Partition.t;
  real_rounds : int;  (** sum of measured rounds over all executed waves *)
  messages : int;
  waves : int;
}

val partition :
  ?engine:Ultraspan_congest.Network.engine -> ?jobs:int -> t:int -> Graph.t ->
  outcome
(** Requires [t >= 1].  [engine] and [jobs] go to every wave's
    {!Ultraspan_congest.Network.run}. *)
