(* Pinned outputs of the distributed Baswana–Sen program, plus the facts its
   local step relies on. *)

open Ultraspan
open Helpers

let mask_string keep =
  String.init (Array.length keep) (fun i -> if keep.(i) then '1' else '0')

let stats_string (s : Network.stats) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d" s.Network.rounds s.messages s.max_words
    s.wakeups s.drops s.crashed_nodes s.severed_links

let outcome_digest (o : Bs_distributed.outcome) =
  Digest.to_hex
    (Digest.string
       (mask_string o.Bs_distributed.spanner.Spanner.keep
       ^ "|"
       ^ stats_string o.Bs_distributed.network_stats))

(* Unit-weight, weighted and tie-heavy weighted (weights in 1..3) G(n,p). *)
let digest_graphs =
  lazy
    (let base seed n deg =
       Generators.connected_gnp ~rng:(Rng.create seed) ~n ~avg_degree:deg
     in
     [
       ("unit", base 11 160 9.0);
       ( "weighted",
         Generators.randomize_weights ~rng:(Rng.create 12) ~lo:1 ~hi:1000
           (base 12 150 8.0) );
       ( "ties",
         Generators.randomize_weights ~rng:(Rng.create 13) ~lo:1 ~hi:3
           (base 13 170 10.0) );
     ])

(* Recorded from the list-based step before the O(deg) rewrite; every
   engine and job count must reproduce them. *)
let pinned =
  [
    ("unit", 1, "3db8674320d422a0a7eeddb67f65e5b5");
    ("unit", 2, "08d80a1bcadf14403a5ac6102a5cf466");
    ("unit", 3, "4cda4557bf7dd6e0acae54d03364355f");
    ("unit", 5, "95cab8478799d2a699c54e200a16e201");
    ("weighted", 1, "ad6a6748af4097cd9c2f15f48e47ffda");
    ("weighted", 2, "8e29cebde033c96eaa542bd7bd4f7b2d");
    ("weighted", 3, "691709b9275d8f892cd9599d38ac69ae");
    ("weighted", 5, "df4733b19731f2da1658365228ec4fcc");
    ("ties", 1, "5baa3ca1b5d9a192c6641790d7270998");
    ("ties", 2, "0d20daa05ce99a4a4f61d08f663d971b");
    ("ties", 3, "16c8ab7c27fd1db1a5223f7d5b1d8ec6");
    ("ties", 5, "3f5baaa4af9d87e46389762a57e4df2a");
  ]

let pinned_digests () =
  List.iter
    (fun (name, k, want) ->
      let g = List.assoc name (Lazy.force digest_graphs) in
      List.iter
        (fun (label, engine, jobs) ->
          let o = Bs_distributed.run ~engine ~jobs ~seed:(17 * k) ~k g in
          Alcotest.(check string)
            (Printf.sprintf "%s k=%d %s" name k label)
            want (outcome_digest o))
        [ ("fast j1", `Fast, 1); ("fast j4", `Fast, 4); ("ref", `Ref, 1) ])
    pinned

let trace_digest g ~engine ~k =
  let tr = Trace.create g in
  ignore (Bs_distributed.run ~trace:tr ~engine ~seed:5 ~k g);
  Digest.to_hex (Digest.string (Trace.to_jsonl tr))

let pinned_traces =
  [
    ("unit", "23d10b965092ad5affb5c55f4ea2e14a");
    ("weighted", "0b8242c9ca3a0e0d9d2642285942d4b3");
    ("ties", "a301f5ac297cff80e40b4f0b805424e7");
  ]

let pinned_trace_digests () =
  List.iter
    (fun (name, want) ->
      let g = List.assoc name (Lazy.force digest_graphs) in
      List.iter
        (fun engine ->
          Alcotest.(check string) name want (trace_digest g ~engine ~k:3))
        [ `Fast; `Ref ])
    pinned_traces

(* ---------- every native protocol, pinned across engines and jobs ----------

   Each entry digests everything a run exposes: its outputs and
   [Network.stats], the trace JSONL and the [Faults.events] log where the
   protocol takes a sink or an injector, and the stripped deterministic
   metrics where it takes a registry.  The digests were recorded with the
   list-based program interface; every engine and job count, with and
   without the fault plan, must reproduce them. *)

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

type sinks = {
  engine : Network.engine;
  jobs : int;
  faults : Faults.t option;
  trace : Trace.t option;
  metrics : Metrics.t;
}

let corrupt_detour (w : Witness.spanner_witness) =
  let detour = Array.map Array.copy w.Witness.detour in
  (match Array.find_index (fun p -> Array.length p >= 3) detour with
  | Some e -> detour.(e).(1) <- detour.(e).(2)
  | None -> ());
  detour

let drop_first_kept keep =
  let keep = Array.copy keep in
  (match Array.find_index Fun.id keep with
  | Some e -> keep.(e) <- false
  | None -> ());
  keep

let protocols =
  lazy
    (let graphs = Lazy.force digest_graphs in
     let g = List.assoc "weighted" graphs and u = List.assoc "unit" graphs in
     let n = Graph.n u in
     let sp = (Bs_distributed.run ~seed:3 ~k:3 u).Bs_distributed.spanner in
     let sw = Witness.spanner u ~k:3 sp in
     let cert = Thurimella.certificate ~k:2 u in
     let cw = Result.get_ok (Witness.certificate u cert) in
     (* [valid]: whether every node must accept *)
     let verdict ~valid (v : Checkers.verdict) =
       Alcotest.(check bool) "verdict" valid (Checkers.all_accept v);
       (v.Checkers.accept, v.Checkers.stats)
     in
     let spanner_check ?(valid = false) ~keep ~detour s =
       verdict ~valid
         (Checkers.spanner ~engine:s.engine ~jobs:s.jobs ~metrics:s.metrics u
            ~keep ~k:3 ~detour)
     in
     let forest_check ?(valid = false) ?(forest = cw.Witness.forest)
         ?(depth = cw.Witness.depth) s =
       verdict ~valid
         (Checkers.forests ~engine:s.engine ~jobs:s.jobs ~metrics:s.metrics u
            ~keep:cert.Certificate.keep ~k:cw.Witness.ck ~forest
            ~parent:cw.Witness.parent ~depth ~root:cw.Witness.root)
     in
     let p, _ = Stretch_friendly.partition ~t:4 u in
     let part = Cluster_programs.of_partition p in
     let values = Array.init n (fun v -> (v * 37) mod 101) in
     let digest_partition (q : Partition.t) =
       (q.Partition.cluster_of, q.parent, q.parent_eid, q.roots)
     in
     (* (name, takes a fault plan, graph, run) *)
     [
       ( "bfs",
         true,
         u,
         fun s ->
           digest
             (Programs.bfs ?faults:s.faults ?trace:s.trace ~metrics:s.metrics
                ~engine:s.engine ~jobs:s.jobs u ~root:0) );
       ( "broadcast_max",
         true,
         u,
         fun s ->
           digest
             (Programs.broadcast_max ?faults:s.faults ?trace:s.trace
                ~metrics:s.metrics ~engine:s.engine ~jobs:s.jobs u ~values) );
       ( "maximal_matching",
         false,
         u,
         fun s ->
           digest
             (Programs.maximal_matching ?trace:s.trace ~metrics:s.metrics
                ~engine:s.engine ~jobs:s.jobs u) );
       ( "luby_mis",
         false,
         u,
         fun s ->
           digest
             (Programs.luby_mis ?trace:s.trace ~metrics:s.metrics
                ~engine:s.engine ~jobs:s.jobs ~seed:9 u) );
       ( "bellman_ford",
         false,
         g,
         fun s ->
           digest
             (Programs.bellman_ford ?trace:s.trace ~metrics:s.metrics
                ~engine:s.engine ~jobs:s.jobs g ~source:0) );
       ( "spanning_forest",
         false,
         g,
         fun s ->
           digest
             (Programs.spanning_forest ?trace:s.trace ~metrics:s.metrics
                ~engine:s.engine ~jobs:s.jobs g) );
       ( "spanner checker",
         false,
         u,
         fun s ->
           digest
             (spanner_check ~valid:true ~keep:sp.Spanner.keep
                ~detour:sw.Witness.detour s) );
       ( "spanner checker, corrupted detour",
         false,
         u,
         fun s ->
           digest
             (spanner_check ~keep:sp.Spanner.keep ~detour:(corrupt_detour sw) s)
       );
       ( "spanner checker, dropped edge",
         false,
         u,
         fun s ->
           digest
             (spanner_check
                ~keep:(drop_first_kept sp.Spanner.keep)
                ~detour:sw.Witness.detour s) );
       ( "forest checker",
         false,
         u,
         fun s -> digest (forest_check ~valid:true s) );
       ( "forest checker, corrupted depth",
         false,
         u,
         fun s ->
           let depth = Array.map Array.copy cw.Witness.depth in
           depth.(0).(n / 2) <- depth.(0).(n / 2) + 1;
           digest (forest_check ~depth s) );
       ( "forest checker, corrupted forest",
         false,
         u,
         fun s ->
           let forest = Array.copy cw.Witness.forest in
           (match Array.find_index (fun l -> l = 2) forest with
           | Some e -> forest.(e) <- 1
           | None -> ());
           digest (forest_check ~forest s) );
       ( "cluster sum_to_roots",
         false,
         u,
         fun s ->
           digest
             (Cluster_programs.sum_to_roots ~engine:s.engine ~jobs:s.jobs u
                part ~values) );
       ( "cluster min_boundary_edges",
         false,
         u,
         fun s ->
           digest
             (Cluster_programs.min_boundary_edges ~engine:s.engine
                ~jobs:s.jobs u part) );
       ( "cluster broadcast_from_roots",
         false,
         u,
         fun s ->
           digest
             (Cluster_programs.broadcast_from_roots ~engine:s.engine
                ~jobs:s.jobs u part
                ~values:(Array.init (Partition.count p) (fun c -> c * 3))) );
       ( "sf_distributed",
         false,
         u,
         fun s ->
           let o = Sf_distributed.partition ~engine:s.engine ~jobs:s.jobs ~t:4 u in
           digest
             ( digest_partition o.Sf_distributed.partition,
               o.real_rounds,
               o.messages,
               o.waves ) );
     ])

let protocol_plan g =
  let rng = Rng.create 29 in
  Faults.empty
  |> Faults.with_drops ~seed:31 0.15
  |> Faults.random_crashes ~rng ~n:(Graph.n g) ~within:4 ~count:3
  |> Faults.random_link_failures ~rng g ~within:4 ~count:4

(* One run with fresh sinks: the digest of its outputs plus everything the
   sinks recorded. *)
let observe_protocol g run ~engine ~jobs ~faulted =
  let faults =
    if faulted then Some (Faults.make (protocol_plan g)) else None
  in
  let s =
    { engine; jobs; faults; trace = Some (Trace.create g);
      metrics = Metrics.create () }
  in
  let out = run s in
  let trace =
    match s.trace with
    | Some tr when Array.length (Trace.rounds tr) > 0 -> Trace.to_jsonl tr
    | _ -> ""
  in
  digest
    ( out,
      Option.map Faults.events faults,
      trace,
      Metrics.exposition ~strip:true (Metrics.snapshot s.metrics) )

let protocol_schedules =
  [ ("fast j1", `Fast, 1); ("fast j4", `Fast, 4); ("ref", `Ref, 1) ]

let protocol_pins =
  [
    ("bellman_ford", "47193d584d509b1ff82261172a57d506");
    ("bfs +faults", "2de50658d776bfb6013438f3c47f5e27");
    ("bfs", "9a7768e79484f9275400ade3a75c3754");
    ("broadcast_max +faults", "7f49e730dfb0e9012d7beeeb53496b70");
    ("broadcast_max", "324e392ee97af25377926d1435062be1");
    ("cluster broadcast_from_roots", "1621fb04d37ff8081f4871f26e0a0e06");
    ("cluster min_boundary_edges", "4d5e2aa3f3d0532fee0d06e24f2d7cf5");
    ("cluster sum_to_roots", "9b7efc08ffcf2d08ebcb2e9172a7a710");
    ("forest checker", "83f7122d1cf1c86110a0c2ea8185f0ac");
    ("forest checker, corrupted depth", "35e6a363f08988701e31ee88aae6a9d5");
    ("forest checker, corrupted forest", "2c569de51239e539a4b7cb473da832a6");
    ("luby_mis", "fc25e4e976693c1ebd29ee7f6676bc37");
    ("maximal_matching", "b5e68cf2849ad94602ea9b9329515cbc");
    ("sf_distributed", "41987985f21dd862a35e1b3018032ca6");
    ("spanner checker", "9aeaadf7d61942185fd9317aa7b869bb");
    ("spanner checker, corrupted detour", "294257bf8fd3cb2fc730b1494f23819e");
    ("spanner checker, dropped edge", "e4f7f98d974b0c7812becbe2c437dfe4");
    ("spanning_forest", "bbc06569e3b3b8e4b42cc72650a4b9e1");
  ]

let protocols_pinned () =
  List.iter
    (fun (name, faultable, g, run) ->
      List.iter
        (fun faulted ->
          let key = name ^ if faulted then " +faults" else "" in
          List.iter
            (fun (label, engine, jobs) ->
              let got = observe_protocol g run ~engine ~jobs ~faulted in
              Alcotest.(check string)
                (key ^ " " ^ label)
                (List.assoc key protocol_pins)
                got)
            protocol_schedules)
        (if faultable then [ false; true ] else [ false ]))
    (Lazy.force protocols)

(* ---------- the list-based step, kept as a differential oracle ---------- *)

(* The protocol as first written: assoc lists keyed by neighbour, a hash
   table of per-cluster minima and a polymorphic sort per decision step.
   It still reads its inbox and writes its outbox as lists of
   [(neighbour, payload)], converted at the mailbox. *)
module Reference = struct
  let inbox_of mb =
    List.rev
      (Network.fold mb
         (fun acc c ->
           let pl = Array.init (Network.length mb c) (Network.word mb c) in
           (Network.sender mb c, pl) :: acc)
         [])

  let step g mb me (state, out, halt) =
    List.iter (fun (u, pl) -> send_to g mb me u pl) out;
    { Network.state; halt }

  type state = {
    alive : bool;
    cluster : int;
    nbr_cluster : (int * int) list;
    dead_edges : int list;
    spanner_nbrs : int list;
  }

  let run ?trace ~engine ~seed ~k g =
    let n = Graph.n g in
    let p = float_of_int (max 2 n) ** (-1.0 /. float_of_int k) in
    let hash = Hash_family.create ~degree:7 (Rng.create seed) in
    let threshold = Hash_family.threshold_of_prob p in
    let sampled ~iter c =
      iter < k && Hash_family.indicator hash ~threshold ((c * 131) + iter)
    in
    let list_step g ~round ~me st mb =
      let inbox = inbox_of mb in
      let iter = (round / 2) + 1 in
      if iter > k || not st.alive then
        (st, [], true)
      else if round mod 2 = 0 then begin
        let newly_dead =
          List.filter_map
            (fun (s, p) -> if p.(0) = 1 then Some s else None)
            inbox
        in
        let dead_edges = newly_dead @ st.dead_edges in
        let payload = [| 0; st.cluster |] in
        let out =
          List.rev
            (Graph.fold_adj g me
               (fun acc u _ ->
                 if List.mem u dead_edges then acc else (u, payload) :: acc)
               [])
        in
        ({ st with dead_edges }, out, false)
      end
      else begin
        let nbr_cluster =
          List.filter_map
            (fun (s, p) -> if p.(0) = 0 then Some (s, p.(1)) else None)
            inbox
        in
        let st = { st with nbr_cluster } in
        if sampled ~iter st.cluster then
          (st, [], iter = k)
        else begin
          let best = Hashtbl.create 8 in
          Graph.iter_adj g me (fun u eid ->
              match List.assoc_opt u nbr_cluster with
              | None -> ()
              | Some c -> (
                  let key = (Graph.weight g eid, eid) in
                  match Hashtbl.find_opt best c with
                  | Some (key', _) when key' <= key -> ()
                  | _ -> Hashtbl.replace best c (key, u)));
          let adjacent =
            Hashtbl.fold (fun c (key, u) acc -> (key, c, u) :: acc) best []
            |> List.sort compare
          in
          let notice = [| 1 |] in
          match List.find_opt (fun (_, c, _) -> sampled ~iter c) adjacent with
          | Some ((w_i, _), c_i, _) ->
              let added =
                List.filter
                  (fun ((w_j, _), c_j, _) -> c_j = c_i || w_j < w_i)
                  adjacent
              in
              let kill = List.map (fun (_, c, _) -> c) added in
              let notices =
                List.filter_map
                  (fun (u, c) ->
                    if List.mem c kill then Some (u, notice) else None)
                  nbr_cluster
              in
              ( {
                  st with
                  cluster = c_i;
                  spanner_nbrs =
                    List.map (fun (_, _, u) -> u) added @ st.spanner_nbrs;
                  dead_edges = List.map fst notices @ st.dead_edges;
                },
                notices,
                iter = k )
          | None ->
              let notices =
                List.filter_map
                  (fun (u, _) ->
                    if List.mem u st.dead_edges then None else Some (u, notice))
                  nbr_cluster
              in
              ( {
                  st with
                  alive = false;
                  cluster = -1;
                  spanner_nbrs =
                    List.map (fun (_, _, u) -> u) adjacent @ st.spanner_nbrs;
                },
                notices,
                true )
        end
      end
    in
    let init _ v =
      {
        alive = true;
        cluster = v;
        nbr_cluster = [];
        dead_edges = [];
        spanner_nbrs = [];
      }
    in
    let states, stats =
      Network.run ~word_limit:4 ?trace ~engine g
        {
          Network.init;
          round =
            (fun g ~round ~me st mb ->
              step g mb me (list_step g ~round ~me st mb));
        }
    in
    let keep = Array.make (Graph.m g) false in
    Array.iteri
      (fun v st ->
        List.iter
          (fun u -> keep.(Option.get (Graph.find_edge g v u)) <- true)
          st.spanner_nbrs)
      states;
    (keep, stats)
end

let agrees_with_reference =
  qcheck ~count:40 "O(deg) step matches the list-based step" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let g = graph_of_seed ~n_max:60 seed in
      let g =
        match Rng.int rng 3 with
        | 0 -> Graph.with_unit_weights g
        | 1 -> Generators.randomize_weights ~rng ~lo:1 ~hi:3 g
        | _ -> g
      in
      let k = 1 + Rng.int rng 5 in
      let engine = if Rng.int rng 2 = 0 then `Fast else `Ref in
      let traced run =
        let tr = Trace.create g in
        let r = run tr in
        (r, Trace.to_jsonl tr)
      in
      traced (fun trace -> Reference.run ~trace ~engine ~seed ~k g)
      = traced (fun trace ->
            let o = Bs_distributed.run ~trace ~engine ~seed ~k g in
            ( o.Bs_distributed.spanner.Spanner.keep,
              o.Bs_distributed.network_stats )))

(* Every adjacency slice lists its edges in ascending id order, so on
   unit weights the (weight, edge id) decision order is the slice order
   itself and no node sorts anything. *)
let slices_in_eid_order =
  qcheck ~count:30 "adjacency slices are in ascending edge-id order" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let g = graph_of_seed ~n_max:80 seed in
      let shuffled =
        let es =
          Array.map (fun e -> (e.Graph.v, e.Graph.u, e.Graph.w)) (Graph.edges g)
        in
        Rng.shuffle rng es;
        Graph.of_edge_array ~n:(Graph.n g) es
      in
      let sub =
        Graph.sub_by_eids g (Array.init (Graph.m g) (fun _ -> Rng.bool rng))
      in
      let streamed =
        Generators.Streamed.graph
          (Generators.Streamed.degree_bounded ~seed
             ~n:(Graph.n g + 7)
             ~degree:6)
      in
      List.for_all
        (fun h ->
          let { Graph.off; eid; _ } = Graph.csr h in
          let ok = ref true in
          for v = 0 to Graph.n h - 1 do
            for a = off.(v) + 1 to off.(v + 1) - 1 do
              if eid.(a - 1) >= eid.(a) then ok := false
            done
          done;
          !ok)
        [ g; shuffled; sub; streamed ])

(* A deterministic work gate that bites on one core: the words one
   sequential run allocates on the simulate workload's graph shape
   (n = 400, degree 16, k = 4).  The list-based step allocated 2.25 M
   words here and the O(deg) step 0.76 M, most of it the list inboxes and
   outboxes of the program interface; on the arc-cursor mailbox a run
   allocates about 51 k.  The ceiling leaves twice that. *)
let minor_words_bound = 100_000.

let gate_graph =
  lazy
    (Generators.Streamed.graph
       (Generators.Streamed.degree_bounded ~seed:1 ~n:400 ~degree:16))

let minor_words_gate () =
  let g = Lazy.force gate_graph in
  let run () = ignore (Bs_distributed.run ~jobs:1 ~seed:1 ~k:4 g) in
  run ();
  let (), w = alloc_words run in
  check_words "one run, minor" ~ceiling:minor_words_bound w.minor

(* Minor words per delivered message at jobs = 1, same graph.  With list
   inboxes and outboxes a flood (every node sends one word to every
   neighbour for 8 rounds) allocated 9.6 words per message and
   [Bs_distributed.run ~k:4] 15.6: a cons, a tuple and a payload copy per
   message on each side of the interface.  The mailbox reads and writes
   arc slots in place, so what is left is per step, not per message (the
   step record, one payload array per sending step): 0.15 and 1.06 words.
   Each ceiling sits below one cons cell (3 words) per message, so any
   per-message allocation that comes back fails the gate. *)
let flood_words_per_message = 1.0
let bs_words_per_message = 2.0

let flood ~rounds =
  {
    Network.init = (fun _ v -> [| v |]);
    round =
      (fun g ~round ~me payload mb ->
        if round < rounds then send_all g mb me payload;
        { Network.state = payload; halt = round >= rounds });
  }

let words_per_message_gate () =
  let g = Lazy.force gate_graph in
  let per_message what ~ceiling run =
    ignore (run ());
    let (stats : Network.stats), w = alloc_words run in
    let per = w.minor /. float_of_int stats.Network.messages in
    if per > ceiling then
      Alcotest.failf "%s: %.2f minor words per message, ceiling %.2f" what per
        ceiling
  in
  per_message "flood" ~ceiling:flood_words_per_message (fun () ->
      snd (Network.run ~jobs:1 g (flood ~rounds:8)));
  per_message "bs_distributed k=4" ~ceiling:bs_words_per_message (fun () ->
      (Bs_distributed.run ~jobs:1 ~seed:1 ~k:4 g).Bs_distributed.network_stats)

let suite =
  [
    case "outputs pinned across engines and jobs" pinned_digests;
    case "traces pinned" pinned_trace_digests;
    agrees_with_reference;
    slices_in_eid_order;
    case "minor words per run" minor_words_gate;
    case "every native protocol pinned across engines and jobs"
      protocols_pinned;
    case "minor words per delivered message" words_per_message_gate;
  ]
