open! Import

(* [payload] along every arc of [me], in increasing neighbour order. *)
let send_all mb (csr : Graph.csr) me payload =
  for a = csr.off.(me) to csr.off.(me + 1) - 1 do
    Network.send mb ~arc:a payload
  done

(* The node's arcs, in increasing neighbour order. *)
let own_arcs (csr : Graph.csr) v =
  List.init (csr.off.(v + 1) - csr.off.(v)) (fun i -> csr.off.(v) + i)

type bfs_result = { dist : int array; parent : int array }

(* ---------- BFS ---------- *)

type bfs_state = { bdist : int; bparent : int }

let bfs ?faults ?trace ?metrics ?engine ?jobs g ~root =
  if root < 0 || root >= Graph.n g then invalid_arg "Programs.bfs: bad root";
  let csr = Graph.csr g in
  let program =
    {
      Network.init = (fun _ _ -> { bdist = -1; bparent = -1 });
      round =
        (fun _ ~round ~me st mb ->
          if round = 0 && me = root then begin
            send_all mb csr me [| 0 |];
            { Network.state = { bdist = 0; bparent = -1 }; halt = true }
          end
          else if st.bdist >= 0 then
            (* already settled: ignore late announcements *)
            { Network.state = st; halt = true }
          else begin
            (* the smallest distance, from the smallest sender on ties *)
            let best =
              Network.fold mb
                (fun b c ->
                  if b < 0 || Network.word mb c 0 < Network.word mb b 0 then c
                  else b)
                (-1)
            in
            if best >= 0 then begin
              let parent = Network.sender mb best in
              let st = { bdist = Network.word mb best 0 + 1; bparent = parent } in
              let payload = [| st.bdist |] in
              for a = csr.off.(me) to csr.off.(me + 1) - 1 do
                if csr.dst.(a) <> parent then Network.send mb ~arc:a payload
              done;
              { Network.state = st; halt = true }
            end
            else { Network.state = st; halt = true }
          end);
    }
  in
  let states, stats = Network.run ?faults ?trace ?metrics ?engine ?jobs g program in
  ( {
      dist = Array.map (fun s -> s.bdist) states;
      parent = Array.map (fun s -> s.bparent) states;
    },
    stats )

(* ---------- broadcast max ---------- *)

type bc_state = { known : int }

let broadcast_max ?faults ?trace ?metrics ?engine ?jobs g ~values =
  if Array.length values <> Graph.n g then
    invalid_arg "Programs.broadcast_max: length mismatch";
  let csr = Graph.csr g in
  let program =
    {
      Network.init = (fun _ v -> { known = values.(v) });
      round =
        (fun _ ~round ~me st mb ->
          let incoming =
            Network.fold mb (fun acc c -> max acc (Network.word mb c 0)) min_int
          in
          let updated = max st.known incoming in
          if round = 0 || updated > st.known then begin
            send_all mb csr me [| updated |];
            { Network.state = { known = updated }; halt = true }
          end
          else { Network.state = st; halt = true });
    }
  in
  let states, stats = Network.run ?faults ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.known) states, stats)

(* ---------- maximal matching ---------- *)

let tag_propose = 0
let tag_matched = 1

type mm_state = {
  mate : int;
  alive : int list; (* arcs to unmatched neighbours, increasing *)
  proposed_to : int; (* arc *)
  announced : bool;
}

(* Arcs of the inbox's messages tagged [tag], in increasing sender order. *)
let arcs_tagged mb tag =
  List.rev
    (Network.fold mb
       (fun acc c ->
         if Network.word mb c 0 = tag then Network.arc mb c :: acc else acc)
       [])

let maximal_matching ?trace ?metrics ?engine ?jobs g =
  let csr = Graph.csr g in
  let matched = [| tag_matched |] and propose = [| tag_propose |] in
  let program =
    {
      Network.init =
        (fun _ v ->
          { mate = -1; alive = own_arcs csr v; proposed_to = -1; announced = false });
      round =
        (fun _ ~round ~me:_ st mb ->
          (* Remove neighbours announced as matched. *)
          let dead = arcs_tagged mb tag_matched in
          let alive = List.filter (fun a -> not (List.mem a dead)) st.alive in
          let st = { st with alive } in
          if st.mate >= 0 then
            if st.announced then { Network.state = st; halt = true }
            else begin
              List.iter (fun a -> Network.send mb ~arc:a matched) st.alive;
              { Network.state = { st with announced = true }; halt = true }
            end
          else if round mod 2 = 0 then begin
            (* Propose phase. *)
            match st.alive with
            | [] -> { Network.state = st; halt = true }
            | target :: _ ->
                Network.send mb ~arc:target propose;
                { Network.state = { st with proposed_to = target }; halt = false }
          end
          else begin
            (* Resolve phase: mutual proposals marry. *)
            let proposers = arcs_tagged mb tag_propose in
            if st.proposed_to >= 0 && List.mem st.proposed_to proposers then begin
              let mate = st.proposed_to in
              List.iter
                (fun a -> if a <> mate then Network.send mb ~arc:a matched)
                st.alive;
              {
                Network.state =
                  { st with mate = csr.dst.(mate); announced = true; proposed_to = -1 };
                halt = true;
              }
            end
            else
              {
                Network.state = { st with proposed_to = -1 };
                halt = st.alive = [];
              }
          end);
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.mate) states, stats)

(* ---------- Luby's MIS ---------- *)

let tag_priority = 2
let tag_in_mis = 3
let tag_removed = 4

type mis_status = Mis_active | Mis_in | Mis_covered

type mis_state = {
  status : mis_status;
  active_nbrs : int list; (* arcs *)
  prios : (int * int) list; (* neighbour -> priority, this phase *)
}

let luby_mis ?trace ?metrics ?engine ?jobs ~seed g =
  (* Per-(vertex, phase) pseudo-random priorities via SplitMix: the whole
     run is reproducible from [seed]. *)
  let priority v phase =
    let r = Util.Rng.create ((seed * 1_000_003) + (v * 7919) + phase) in
    Util.Rng.bits r
  in
  let csr = Graph.csr g in
  let in_mis = [| tag_in_mis |] and removed_msg = [| tag_removed |] in
  let program =
    {
      Network.init =
        (fun _ v -> { status = Mis_active; active_nbrs = own_arcs csr v; prios = [] });
      round =
        (fun _ ~round ~me st mb ->
          let phase = round / 3 in
          let sub = round mod 3 in
          (* Removal notices can arrive at any sub-round boundary. *)
          let removed = arcs_tagged mb tag_removed in
          let active_nbrs =
            List.filter (fun a -> not (List.mem a removed)) st.active_nbrs
          in
          let st = { st with active_nbrs } in
          match st.status with
          | Mis_in | Mis_covered -> { Network.state = st; halt = true }
          | Mis_active ->
              if sub = 0 then begin
                if st.active_nbrs = [] then
                  (* isolated among active vertices: join the set *)
                  { Network.state = { st with status = Mis_in }; halt = true }
                else begin
                  let msg = [| tag_priority; priority me phase |] in
                  List.iter (fun a -> Network.send mb ~arc:a msg) st.active_nbrs;
                  { Network.state = { st with prios = [] }; halt = false }
                end
              end
              else if sub = 1 then begin
                let prios =
                  List.rev
                    (Network.fold mb
                       (fun acc c ->
                         if Network.word mb c 0 = tag_priority then
                           (Network.sender mb c, Network.word mb c 1) :: acc
                         else acc)
                       [])
                in
                let mine = priority me phase in
                let wins =
                  List.for_all
                    (fun (u, p) -> mine > p || (mine = p && me > u))
                    prios
                in
                if wins && prios <> [] then begin
                  List.iter (fun a -> Network.send mb ~arc:a in_mis) st.active_nbrs;
                  { Network.state = { st with status = Mis_in }; halt = true }
                end
                else { Network.state = { st with prios }; halt = false }
              end
              else begin
                (* sub = 2: winner announcements from sub-round 1 arrive
                   here; newly covered vertices tell the rest to prune them *)
                let winners = arcs_tagged mb tag_in_mis in
                if winners <> [] then begin
                  List.iter
                    (fun a ->
                      if not (List.mem a winners) then
                        Network.send mb ~arc:a removed_msg)
                    st.active_nbrs;
                  { Network.state = { st with status = Mis_covered }; halt = true }
                end
                else { Network.state = st; halt = false }
              end);
    }
  in
  let states, stats = Network.run ~word_limit:4 ?trace ?metrics ?engine ?jobs g program in
  (Array.map (fun s -> s.status = Mis_in) states, stats)

(* ---------- distributed Bellman–Ford ---------- *)

type bf_state = { bf_dist : int; bf_parent : int }

let bellman_ford ?trace ?metrics ?engine ?jobs g ~source =
  if source < 0 || source >= Graph.n g then
    invalid_arg "Programs.bellman_ford: bad source";
  let csr = Graph.csr g in
  let program =
    {
      Network.init = (fun _ v ->
          if v = source then { bf_dist = 0; bf_parent = -1 }
          else { bf_dist = max_int; bf_parent = -1 });
      round =
        (fun g ~round ~me st mb ->
          (* relax against the incoming announcements *)
          let improved = ref (round = 0 && me = source) in
          let st =
            Network.fold mb
              (fun st c ->
                let w = Graph.weight g csr.eid.(Network.arc mb c) in
                let nd = Network.word mb c 0 + w in
                if nd < st.bf_dist then begin
                  improved := true;
                  { bf_dist = nd; bf_parent = Network.sender mb c }
                end
                else st)
              st
          in
          if !improved then send_all mb csr me [| st.bf_dist |];
          { Network.state = st; halt = true });
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  ( ( Array.map (fun s -> s.bf_dist) states,
      Array.map (fun s -> s.bf_parent) states ),
    stats )

(* ---------- spanning forest by min-id flooding ---------- *)

type forest_state = { fr_root : int; fr_parent_eid : int }

let spanning_forest ?trace ?metrics ?engine ?jobs g =
  let csr = Graph.csr g in
  let program =
    {
      Network.init = (fun _ v -> { fr_root = v; fr_parent_eid = -1 });
      round =
        (fun _ ~round ~me st mb ->
          let improved = ref (round = 0) in
          let st =
            Network.fold mb
              (fun st c ->
                let root = Network.word mb c 0 in
                if root < st.fr_root then begin
                  improved := true;
                  { fr_root = root; fr_parent_eid = csr.eid.(Network.arc mb c) }
                end
                else st)
              st
          in
          if !improved then send_all mb csr me [| st.fr_root |];
          { Network.state = st; halt = true });
    }
  in
  let states, stats = Network.run ?trace ?metrics ?engine ?jobs g program in
  let eids =
    Array.to_list states
    |> List.filter_map (fun s ->
           if s.fr_parent_eid >= 0 then Some s.fr_parent_eid else None)
  in
  (eids, stats)
