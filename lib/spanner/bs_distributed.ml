open! Import
module Network = Ultraspan_congest.Network

type outcome = {
  spanner : Spanner.t;
  network_stats : Network.stats;
}

(* message tags *)
let tag_cluster = 0 (* payload: [| tag; cluster_id |] *)
let tag_edge_died = 1 (* payload: [| tag |] *)

type state = {
  alive : bool;
  cluster : int;
  (* per-neighbour knowledge, as assoc lists keyed by neighbour vertex *)
  nbr_cluster : (int * int) list;
  dead_edges : int list; (* neighbours whose connecting edge died *)
  spanner_nbrs : int list; (* neighbours across spanner edges (local output) *)
}

let run ?trace ?metrics ?engine ?jobs ~seed ~k g =
  if k < 1 then invalid_arg "Bs_distributed.run: k >= 1";
  let n = Graph.n g in
  let p =
    float_of_int (max 2 n) ** (-1.0 /. float_of_int k)
  in
  (* Shared pseudo-randomness: every node evaluates the same family member. *)
  let hash = Util.Hash_family.create ~degree:7 (Rng.create seed) in
  let threshold = Util.Hash_family.threshold_of_prob p in
  let sampled_cluster ~iter c =
    (* last iteration samples nothing, as in the paper *)
    iter < k
    && Util.Hash_family.indicator hash ~threshold ((c * 131) + iter)
  in
  let program =
    {
      Network.init =
        (fun _ v ->
          { alive = true; cluster = v; nbr_cluster = []; dead_edges = [];
            spanner_nbrs = [] });
      round =
        (fun g ~round ~me st inbox ->
          let iter = (round / 2) + 1 in
          if iter > k || not st.alive then
            { Network.state = st; out = []; halt = true }
          else if round mod 2 = 0 then begin
            (* Broadcast phase.  First fold in edge-death notices from the
               previous decision phase. *)
            let newly_dead =
              List.filter_map
                (fun (s, p) -> if p.(0) = tag_edge_died then Some s else None)
                inbox
            in
            let dead_edges = newly_dead @ st.dead_edges in
            let st = { st with dead_edges } in
            let payload = [| tag_cluster; st.cluster |] in
            let out =
              List.rev
                (Graph.fold_adj g me
                   (fun acc u _ ->
                     if List.mem u dead_edges then acc else (u, payload) :: acc)
                   [])
            in
            { Network.state = st; out; halt = false }
          end
          else begin
            (* Decision phase: inbox holds neighbours' cluster ids. *)
            let nbr_cluster =
              List.filter_map
                (fun (s, p) ->
                  if p.(0) = tag_cluster then Some (s, p.(1)) else None)
                inbox
            in
            let st = { st with nbr_cluster } in
            if sampled_cluster ~iter st.cluster then
              (* nothing to do; stay alive. *)
              { Network.state = st; out = []; halt = iter = k }
            else begin
              (* Adjacent clusters with their minimum (w, eid, neighbour). *)
              let best = Hashtbl.create 8 in
              Graph.iter_adj g me (fun u eid ->
                  match List.assoc_opt u nbr_cluster with
                  | None -> () (* dead edge or dead neighbour *)
                  | Some c ->
                      let key = (Graph.weight g eid, eid) in
                      let entry = (key, u) in
                      (match Hashtbl.find_opt best c with
                      | Some (key', _) when key' <= key -> ()
                      | _ -> Hashtbl.replace best c entry));
              let adjacent =
                Hashtbl.fold
                  (fun c ((w, eid), u) acc -> ((w, eid), c, u) :: acc)
                  best []
                |> List.sort compare
              in
              let first_sampled =
                List.find_opt (fun (_, c, _) -> sampled_cluster ~iter c) adjacent
              in
              match first_sampled with
              | Some ((w_i, _), c_i, _) ->
                  (* join c_i; add e_i and all e_j with strictly smaller
                     weight; the corresponding edges die *)
                  let added =
                    List.filter
                      (fun ((w_j, _), c_j, _) -> c_j = c_i || w_j < w_i)
                      adjacent
                  in
                  let spanner_nbrs =
                    List.map (fun (_, _, u) -> u) added @ st.spanner_nbrs
                  in
                  (* edges to each added cluster die: notify every neighbour
                     in those clusters *)
                  let kill_clusters =
                    List.map (fun (_, c, _) -> c) added
                  in
                  let notices =
                    List.filter_map
                      (fun (u, c) ->
                        if List.mem c kill_clusters then
                          Some (u, [| tag_edge_died |])
                        else None)
                      nbr_cluster
                  in
                  let dead_edges =
                    List.map fst notices @ st.dead_edges
                  in
                  {
                    Network.state =
                      { st with cluster = c_i; spanner_nbrs; dead_edges };
                    out = notices;
                    halt = iter = k;
                  }
              | None ->
                  (* die: add min edge per adjacent cluster, all edges die *)
                  let spanner_nbrs =
                    List.map (fun (_, _, u) -> u) adjacent @ st.spanner_nbrs
                  in
                  let notices =
                    List.filter_map
                      (fun (u, _) ->
                        if List.mem u st.dead_edges then None
                        else Some (u, [| tag_edge_died |]))
                      nbr_cluster
                  in
                  {
                    Network.state =
                      { st with alive = false; cluster = -1; spanner_nbrs };
                    out = notices;
                    halt = true;
                  }
            end
          end);
    }
  in
  let states, network_stats = Network.run ~word_limit:4 ?trace ?metrics ?engine ?jobs g program in
  (* Collect the distributed output. *)
  let keep = Array.make (Graph.m g) false in
  Array.iteri
    (fun v st ->
      List.iter
        (fun u ->
          match Graph.find_edge g v u with
          | Some eid -> keep.(eid) <- true
          | None -> assert false)
        st.spanner_nbrs)
    states;
  let rounds = Ultraspan_congest.Rounds.create () in
  Ultraspan_congest.Rounds.span rounds "bs-congest" (fun () ->
      Ultraspan_congest.Rounds.charge ~label:"protocol" rounds
        network_stats.Network.rounds);
  { spanner = { Spanner.keep; rounds }; network_stats }
