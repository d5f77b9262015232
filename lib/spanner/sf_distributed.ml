open! Import
module Cp = Ultraspan_congest.Cluster_programs
module Network = Ultraspan_congest.Network

type outcome = {
  partition : Partition.t;
  real_rounds : int;
  messages : int;
  waves : int;
}

let none_pair = (max_int, max_int)

let partition ?engine ?jobs ~t g =
  let n = Graph.n g in
  let { Graph.off; eid; _ } = Graph.csr g in
  let st = Stretch_friendly.start ~strategy:Stretch_friendly.Matched g in
  let real_rounds = ref 0 in
  let messages = ref 0 in
  let waves = ref 0 in
  let tally (stats : Network.stats) =
    real_rounds := !real_rounds + stats.Network.rounds;
    messages := !messages + stats.Network.messages;
    incr waves
  in
  for _ = 1 to Stretch_friendly.iterations t do
    let p, _ = Stretch_friendly.result st in
    let cluster_of = p.Partition.cluster_of in
    let nc = Partition.count p in
    let part = Cp.of_partition p in
    (* (1) sizes: one convergecast wave. *)
    let size, s =
      Cp.sum_to_roots ?engine ?jobs g part ~values:(Array.make n 1)
    in
    tally s;
    (* (2) minimum boundary edges: one convergecast wave. *)
    let min_edges, s = Cp.min_boundary_edges ?engine ?jobs g part in
    tally s;
    let out_eid =
      Array.map (function Some (_, eid) -> eid | None -> -1) min_edges
    in
    (* One relay wave: the out-edge endpoint of each cluster reads
       [pick cluster annotation] of its neighbour from the wave hello and
       convergecasts it; -1 for clusters without an out-edge. *)
    let read_across ~annotation pick =
      let got, s =
        Cp.reduce_to_roots ?engine ?jobs g part ~annotation
          ~local:(fun _ me ~nbr_cluster ~nbr_annotation ->
            let best = ref none_pair in
            for a = off.(me) to off.(me + 1) - 1 do
              let c = nbr_cluster.(a) in
              if eid.(a) = out_eid.(cluster_of.(me)) && c >= 0
                 && c <> cluster_of.(me)
              then best := min !best (pick c nbr_annotation.(a), 0)
            done;
            !best)
          ~merge:min ~identity:none_pair
      in
      tally s;
      Array.map (fun (x, _) -> if x = max_int then -1 else x) got
    in
    (* successor ids: the neighbour's cluster. *)
    let succ = read_across ~annotation:(Array.make n 0) (fun c _ -> c) in
    (* Fetch a per-cluster value of the successor: broadcast the value to
       members, then read it across. *)
    let fetch_succ values =
      let vertex_val, s = Cp.broadcast_from_roots ?engine ?jobs g part ~values in
      tally s;
      read_across ~annotation:vertex_val (fun _ a -> a)
    in
    (* (3) 3-colouring: Cole–Vishkin at cluster level, one colour broadcast
       + one successor fetch per step. *)
    let forest_parent = Coloring.Steps.to_forest ~n:nc ~succ in
    let colors = ref (Array.init nc (fun c -> c)) in
    let cv_steps = ref 0 in
    let max_color () = Array.fold_left max 0 !colors in
    while max_color () >= 6 do
      ignore (fetch_succ !colors);
      colors := Coloring.Steps.cv_step ~parent:forest_parent !colors;
      incr cv_steps
    done;
    List.iter
      (fun c ->
        ignore (fetch_succ !colors);
        let shifted = Coloring.Steps.shift_down ~parent:forest_parent !colors in
        ignore (fetch_succ shifted);
        colors :=
          Coloring.Steps.eliminate ~parent:forest_parent ~old_colors:!colors
            ~shifted c)
      [ 5; 4; 3 ];
    let colors = !colors in
    let small = Stretch_friendly.small st ~size ~succ in
    (* (4) maximal matching by colour sweeps; proposals and acceptances
       travel as relay waves. *)
    let mate = Array.make nc (-1) in
    for q = 0 to 2 do
      (* successor status: is it a small unmatched cluster right now? *)
      let status =
        Array.init nc (fun c -> if small c && mate.(c) = -1 then 1 else 0)
      in
      let succ_status = fetch_succ status in
      (* proposal wave: proposers broadcast their out-edge id; the target
         convergecasts the minimum proposer. *)
      let proposing c =
        colors.(c) = q && small c && mate.(c) = -1 && succ_status.(c) = 1
      in
      let prop_values =
        Array.init nc (fun c -> if proposing c then out_eid.(c) else -1)
      in
      let vertex_prop, s1 =
        Cp.broadcast_from_roots ?engine ?jobs g part ~values:prop_values
      in
      tally s1;
      let proposals, s2 =
        Cp.reduce_to_roots ?engine ?jobs g part ~annotation:vertex_prop
          ~local:(fun _ me ~nbr_cluster ~nbr_annotation ->
            let best = ref none_pair in
            for a = off.(me) to off.(me + 1) - 1 do
              let c = nbr_cluster.(a) in
              if nbr_annotation.(a) = eid.(a) && c >= 0
                 && c <> cluster_of.(me)
              then best := min !best (c, 0)
            done;
            !best)
          ~merge:min ~identity:none_pair
      in
      tally s2;
      for d = 0 to nc - 1 do
        let p, _ = proposals.(d) in
        if p <> max_int && mate.(d) = -1 && small d && proposing p
           && succ.(p) = d
        then begin
          mate.(d) <- p;
          mate.(p) <- d
        end
      done;
      (* acceptance relay back to the proposers (information already
         derived above; executed for round fidelity). *)
      ignore (fetch_succ mate)
    done;
    (* (5) the shared merge. *)
    Stretch_friendly.merge st ~size ~out_eid ~succ ~mate
      ~cv_iterations:!cv_steps;
    (* commit wave: new cluster ids reach every member over the merged
       trees. *)
    let p, _ = Stretch_friendly.result st in
    let ids, s =
      Cp.broadcast_from_roots ?engine ?jobs g (Cp.of_partition p)
        ~values:(Array.init (Partition.count p) Fun.id)
    in
    tally s;
    Array.iteri (fun v id -> assert (id = p.Partition.cluster_of.(v))) ids
  done;
  { partition = fst (Stretch_friendly.result st); real_rounds = !real_rounds;
    messages = !messages; waves = !waves }
