(** Umbrella module: the public API of the ultraspan library.

    {1 Substrates}

    - {!Rng}, {!Pqueue}, {!Bitset}, {!Union_find}, {!Stats}, {!Hash_family}
      — deterministic utilities; {!Parallel} — the deterministic domain
      pool behind the [?jobs] arguments of the verification kernels and
      the bench harness fan-out.
    - {!Graph} and friends — the CSR graph substrate with stable edge ids.
    - {!Network}, {!Programs}, {!Rounds} — the CONGEST simulator and round
      accounting; {!Faults} — deterministic fault schedules (crashes, link
      failures, message drops) for running programs under adversity;
      {!Trace} — per-round/per-node/per-edge execution traces with JSONL
      and Chrome-trace exporters; {!Profile} — wall-clock phase timers.
    - {!Coloring}, {!Network_decomposition}, {!Separated_clustering},
      {!Ruling_set} — distributed decomposition primitives.
    - {!Metrics}, {!Metrics_io} — the unified metrics plane: a typed
      registry (counters / gauges / histograms / timers) threaded through
      the simulator, the domain pool and the repair engine, snapshotted as
      [ultraspan-metrics/1] artifacts
    - {!Exp_table}, {!Exp_json} — typed experiment tables with declared
      bound predicates, deterministic JSON artifacts and golden diffing
      (the machine-checkable layer behind [bench/main.exe]).

    {1 The paper's algorithms}

    - {!Baswana_sen} (randomized baseline), {!Bs_derand} (Theorem 1.4),
      {!Linear_size} (Theorem 1.5), {!Stretch_friendly} (Lemma 4.1),
      {!Ultra_sparse} (Theorems 1.2/1.6), {!Clustering_spanner}
      (Theorems F.1/1.7), {!Elkin_neiman} and {!Greedy} (baselines),
      {!Weighted_reduction} (folklore reduction).
    - {!Certificate}, {!Spanner_packing} (Theorem G.1), {!Karger_split}
      (Theorem 1.9), {!Thurimella} and {!Nagamochi_ibaraki} (baselines);
      {!Resilience} — empirical failure-set evaluation of certificates and
      spanners.

    {1 Dynamic graphs}

    - {!Update_stream} — deterministic, replayable batched edge-update
      streams (seeded generation, fault-plan derivation, versioned text
      round-trip); {!Repair} — incremental spanner repair with a rebuild
      fallback and lazy, headroom-based recertification of connectivity
      certificates, recertified after every batch by the ground-truth
      checkers (or, optionally, by the local checkers below).

    {1 Verification plane}

    - {!Witness} — witness builders attaching locally checkable
      certificates to outputs (per-edge detour witnesses for spanners,
      forest-membership labels for connectivity certificates);
      {!Checkers} — the CONGEST checker programs verifying them
      distributedly (every node outputs an accept/reject bit);
      {!Eps_far} — sublinear bounded-BFS ε-far connectivity probes;
      {!Verify} — the front door ([local] / [exact] / [probe] modes)
      and the seeded corruption-detection matrix behind the CI
      [verify] job.

    {1 Serving layer}

    - {!Oracle} — spanners compiled into servable [ultraspan-oracle/2]
      binary artifacts (CSR adjacency + per-vertex cluster labels,
      checksummed, loaded through a zero-copy arena reader);
      {!Query_engine} — the batch approximate-distance / membership
      query engine: bounded bidirectional Dijkstra and deterministic
      parallel execution. *)

(* Utilities *)
module Rng = Ultraspan_util.Rng
module Pqueue = Ultraspan_util.Pqueue
module Bitset = Ultraspan_util.Bitset
module Union_find = Ultraspan_util.Union_find
module Stats = Ultraspan_util.Stats
module Hash_family = Ultraspan_util.Hash_family
module Profile = Ultraspan_util.Profile
module Parallel = Ultraspan_util.Parallel
module Metrics = Ultraspan_util.Metrics

(* Graphs *)
module Graph = Ultraspan_graph.Graph
module Bfs = Ultraspan_graph.Bfs
module Dijkstra = Ultraspan_graph.Dijkstra
module Bellman_ford = Ultraspan_graph.Bellman_ford
module Connectivity = Ultraspan_graph.Connectivity
module Spanning_tree = Ultraspan_graph.Spanning_tree
module Maxflow = Ultraspan_graph.Maxflow
module Mincut = Ultraspan_graph.Mincut
module Stretch = Ultraspan_graph.Stretch
module Partition = Ultraspan_graph.Partition
module Contraction = Ultraspan_graph.Contraction
module Generators = Ultraspan_graph.Generators
module Graph_io = Ultraspan_graph.Graph_io
module Apsp = Ultraspan_graph.Apsp
module Bridges = Ultraspan_graph.Bridges
module Cycles = Ultraspan_graph.Cycles

(* CONGEST *)
module Network = Ultraspan_congest.Network
module Faults = Ultraspan_congest.Faults
module Trace = Ultraspan_congest.Trace
module Programs = Ultraspan_congest.Programs
module Cluster_programs = Ultraspan_congest.Cluster_programs
module Rounds = Ultraspan_congest.Rounds
module Pram = Ultraspan_congest.Pram

(* Decompositions *)
module Coloring = Ultraspan_decomp.Coloring
module Network_decomposition = Ultraspan_decomp.Network_decomposition
module Separated_clustering = Ultraspan_decomp.Separated_clustering
module Ruling_set = Ultraspan_decomp.Ruling_set
module Mpx = Ultraspan_decomp.Mpx

(* Spanners *)
module Spanner = Ultraspan_spanner.Spanner
module Bs_core = Ultraspan_spanner.Bs_core
module Baswana_sen = Ultraspan_spanner.Baswana_sen
module Bs_derand = Ultraspan_spanner.Bs_derand
module Linear_size = Ultraspan_spanner.Linear_size
module Stretch_friendly = Ultraspan_spanner.Stretch_friendly
module Ultra_sparse = Ultraspan_spanner.Ultra_sparse
module Clustering_spanner = Ultraspan_spanner.Clustering_spanner
module Elkin_neiman = Ultraspan_spanner.Elkin_neiman
module Greedy = Ultraspan_spanner.Greedy
module Weighted_reduction = Ultraspan_spanner.Weighted_reduction
module Bs_distributed = Ultraspan_spanner.Bs_distributed
module Sf_distributed = Ultraspan_spanner.Sf_distributed

(* Dynamic graphs *)
module Update_stream = Ultraspan_dynamic.Update_stream
module Repair = Ultraspan_dynamic.Repair

(* Verification plane *)
module Checkers = Ultraspan_congest.Checkers
module Witness = Ultraspan_verify.Witness
module Eps_far = Ultraspan_verify.Eps_far
module Verify = Ultraspan_verify.Verify

(* Distance-oracle serving layer *)
module Oracle = Ultraspan_oracle.Oracle
module Query_engine = Ultraspan_oracle.Query_engine

(* Experiment artifacts *)
module Exp_json = Ultraspan_exp.Json
module Exp_table = Ultraspan_exp.Table
module Metrics_io = Ultraspan_exp.Metrics_io

(* Certificates *)
module Certificate = Ultraspan_certificate.Certificate
module Spanner_packing = Ultraspan_certificate.Spanner_packing
module Karger_split = Ultraspan_certificate.Karger_split
module Thurimella = Ultraspan_certificate.Thurimella
module Nagamochi_ibaraki = Ultraspan_certificate.Nagamochi_ibaraki
module Kecss = Ultraspan_certificate.Kecss
module Resilience = Ultraspan_certificate.Resilience
