open! Import

type partition = {
  cluster_of : int array;
  parent : int array;
  roots : int array;
}

let of_partition (p : Ultraspan_graph.Partition.t) =
  if Array.exists (fun c -> c < 0) p.Ultraspan_graph.Partition.cluster_of then
    invalid_arg "Cluster_programs.of_partition: unclustered vertex";
  {
    cluster_of = Array.copy p.Ultraspan_graph.Partition.cluster_of;
    parent = Array.copy p.Ultraspan_graph.Partition.parent;
    roots = Array.copy p.Ultraspan_graph.Partition.roots;
  }

let tag_hello = 0 (* [| tag; cluster; parent_flag; annotation |] *)
let tag_aggregate = 1 (* [| tag; a; b |] *)
let tag_down = 2 (* [| tag; value |] *)

type 'acc cv_state = {
  pending : int; (* children yet to report *)
  acc : 'acc;
  done_ : bool;
  result : 'acc option; (* at roots *)
}

(* Round 0 of every wave: tell each neighbour my cluster, whether it is my
   tree parent, and then [extra] (the annotation, when given). *)
let send_hellos mb (csr : Graph.csr) part me extra =
  let hello = Array.make (3 + Array.length extra) tag_hello in
  hello.(1) <- part.cluster_of.(me);
  Array.blit extra 0 hello 3 (Array.length extra);
  for a = csr.off.(me) to csr.off.(me + 1) - 1 do
    hello.(2) <- (if part.parent.(me) = csr.dst.(a) then 1 else 0);
    Network.send mb ~arc:a hello
  done

(* Is message [c] a hello from one of my children? *)
let from_child mb part me c =
  Network.word mb c 0 = tag_hello
  && Network.word mb c 2 = 1
  && Network.word mb c 1 = part.cluster_of.(me)

(* Generic convergecast: accumulators are pairs of ints.  [local] computes a
   vertex's own contribution once neighbour clusters/annotations are known;
   [merge] combines accumulators. *)
let convergecast ?engine ?jobs g part ~annotation ~local ~merge ~identity =
  let csr = Graph.csr g in
  (* What each neighbour announced, at the arc towards it. *)
  let nbr_cluster = Array.make (Graph.arc_count g) (-1) in
  let nbr_annotation = Array.make (Graph.arc_count g) 0 in
  let program =
    {
      Network.init =
        (fun _ _ -> { pending = -1; acc = identity; done_ = false; result = None });
      round =
        (fun g ~round ~me st mb ->
          if round = 0 then begin
            send_hellos mb csr part me [| annotation.(me) |];
            { Network.state = st; halt = false }
          end
          else begin
            (* fold in hellos (round 1 only) and child aggregates *)
            let st =
              if round = 1 then begin
                let children =
                  Network.fold mb
                    (fun children c ->
                      if Network.word mb c 0 = tag_hello then begin
                        let a = Network.arc mb c in
                        nbr_cluster.(a) <- Network.word mb c 1;
                        nbr_annotation.(a) <- Network.word mb c 3
                      end;
                      if from_child mb part me c then children + 1 else children)
                    0
                in
                {
                  st with
                  pending = children;
                  acc = local g me ~nbr_cluster ~nbr_annotation;
                }
              end
              else st
            in
            let st =
              Network.fold mb
                (fun st c ->
                  if Network.word mb c 0 = tag_aggregate then
                    {
                      st with
                      acc =
                        merge st.acc (Network.word mb c 1, Network.word mb c 2);
                      pending = st.pending - 1;
                    }
                  else st)
                st
            in
            if st.done_ then { Network.state = st; halt = true }
            else if st.pending = 0 then begin
              if part.parent.(me) = -1 then
                {
                  Network.state = { st with done_ = true; result = Some st.acc };
                  halt = true;
                }
              else begin
                let a, b = st.acc in
                Network.send mb
                  ~arc:(Graph.arc_index g me part.parent.(me))
                  [| tag_aggregate; a; b |];
                { Network.state = { st with done_ = true }; halt = true }
              end
            end
            else { Network.state = st; halt = false }
          end);
    }
  in
  let states, stats = Network.run ~word_limit:4 ?engine ?jobs g program in
  let out = Array.make (Array.length part.roots) None in
  Array.iteri
    (fun cid root ->
      match states.(root).result with
      | Some acc -> out.(cid) <- Some acc
      | None -> failwith "Cluster_programs: root did not finish")
    part.roots;
  (out, stats)

let no_annotation g = Array.make (Graph.n g) 0

let reduce_to_roots ?engine ?jobs g part ~annotation ~local ~merge ~identity =
  if Array.length annotation <> Graph.n g then
    invalid_arg "Cluster_programs.reduce_to_roots: annotation length";
  let out, stats =
    convergecast ?engine ?jobs g part ~annotation ~local ~merge ~identity
  in
  (Array.map (function Some acc -> acc | None -> identity) out, stats)

let sum_to_roots ?engine ?jobs g part ~values =
  if Array.length values <> Graph.n g then
    invalid_arg "Cluster_programs.sum_to_roots: length mismatch";
  let out, stats =
    convergecast ?engine ?jobs g part ~annotation:(no_annotation g)
      ~local:(fun _ me ~nbr_cluster:_ ~nbr_annotation:_ -> (values.(me), 0))
      ~merge:(fun (a, _) (b, _) -> (a + b, 0))
      ~identity:(0, 0)
  in
  (Array.map (function Some (a, _) -> a | None -> 0) out, stats)

let min_boundary_edges ?engine ?jobs g part =
  let none = (max_int, max_int) in
  let out, stats =
    convergecast ?engine ?jobs g part ~annotation:(no_annotation g)
      ~local:(fun g me ~nbr_cluster ~nbr_annotation:_ ->
        let { Graph.off; eid; _ } = Graph.csr g in
        let best = ref none in
        for a = off.(me) to off.(me + 1) - 1 do
          let c = nbr_cluster.(a) in
          if c >= 0 && c <> part.cluster_of.(me) then begin
            let key = (Graph.weight g eid.(a), eid.(a)) in
            if key < !best then best := key
          end
        done;
        !best)
      ~merge:min ~identity:none
  in
  ( Array.map
      (function
        | Some (w, eid) when (w, eid) <> none -> Some (w, eid)
        | _ -> None)
      out,
    stats )

type bc_state = {
  bc_children : int list; (* arcs to the children, last first *)
  bc_value : int option;
  bc_sent : bool;
}

let broadcast_from_roots ?engine ?jobs g part ~values =
  if Array.length values <> Array.length part.roots then
    invalid_arg "Cluster_programs.broadcast_from_roots: length mismatch";
  let csr = Graph.csr g in
  let program =
    {
      Network.init =
        (fun _ v ->
          {
            bc_children = [];
            bc_value =
              (if part.parent.(v) = -1 then Some values.(part.cluster_of.(v))
               else None);
            bc_sent = false;
          });
      round =
        (fun _ ~round ~me st mb ->
          if round = 0 then begin
            send_hellos mb csr part me [||];
            { Network.state = st; halt = false }
          end
          else begin
            let st =
              Network.fold mb
                (fun st c ->
                  if round = 1 && from_child mb part me c then
                    { st with bc_children = Network.arc mb c :: st.bc_children }
                  else if Network.word mb c 0 = tag_down then
                    { st with bc_value = Some (Network.word mb c 1) }
                  else st)
                st
            in
            match st.bc_value with
            | Some v when not st.bc_sent ->
                let down = [| tag_down; v |] in
                List.iter
                  (fun a -> Network.send mb ~arc:a down)
                  (List.rev st.bc_children);
                { Network.state = { st with bc_sent = true }; halt = true }
            | _ -> { Network.state = st; halt = st.bc_sent }
          end);
    }
  in
  let states, stats = Network.run ~word_limit:4 ?engine ?jobs g program in
  ( Array.map
      (fun st ->
        match st.bc_value with
        | Some v -> v
        | None -> failwith "Cluster_programs: vertex missed the broadcast")
      states,
    stats )
