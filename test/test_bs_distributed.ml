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

(* ---------- the list-based step, kept as a differential oracle ---------- *)

(* The protocol as first written: assoc lists keyed by neighbour, a hash
   table of per-cluster minima and a polymorphic sort per decision step. *)
module Reference = struct
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
    let round g ~round ~me st inbox =
      let iter = (round / 2) + 1 in
      if iter > k || not st.alive then
        { Network.state = st; out = []; halt = true }
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
        { Network.state = { st with dead_edges }; out; halt = false }
      end
      else begin
        let nbr_cluster =
          List.filter_map
            (fun (s, p) -> if p.(0) = 0 then Some (s, p.(1)) else None)
            inbox
        in
        let st = { st with nbr_cluster } in
        if sampled ~iter st.cluster then
          { Network.state = st; out = []; halt = iter = k }
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
              {
                Network.state =
                  {
                    st with
                    cluster = c_i;
                    spanner_nbrs =
                      List.map (fun (_, _, u) -> u) added @ st.spanner_nbrs;
                    dead_edges = List.map fst notices @ st.dead_edges;
                  };
                out = notices;
                halt = iter = k;
              }
          | None ->
              let notices =
                List.filter_map
                  (fun (u, _) ->
                    if List.mem u st.dead_edges then None else Some (u, notice))
                  nbr_cluster
              in
              {
                Network.state =
                  {
                    st with
                    alive = false;
                    cluster = -1;
                    spanner_nbrs =
                      List.map (fun (_, _, u) -> u) adjacent @ st.spanner_nbrs;
                  };
                out = notices;
                halt = true;
              }
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
      Network.run ~word_limit:4 ?trace ~engine g { Network.init; round }
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
   words here; the O(deg) step allocates 0.76 M, most of it the
   simulator's inbox and outbox lists. *)
let minor_words_bound = 1_000_000.

let minor_words_gate () =
  let g =
    Generators.Streamed.graph
      (Generators.Streamed.degree_bounded ~seed:1 ~n:400 ~degree:16)
  in
  let run () = ignore (Bs_distributed.run ~jobs:1 ~seed:1 ~k:4 g) in
  run ();
  let (), w = alloc_words run in
  check_words "one run, minor" ~ceiling:minor_words_bound w.minor

let suite =
  [
    case "outputs pinned across engines and jobs" pinned_digests;
    case "traces pinned" pinned_trace_digests;
    agrees_with_reference;
    slices_in_eid_order;
    case "minor words per run" minor_words_gate;
  ]
