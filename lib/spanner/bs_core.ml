open! Import

type t = {
  g : Graph.t;
  spanner : bool array;
  alive : bool array;
  edge_alive : bool array;
  death_iter : int array;
  mutable cluster_of : int array;
  mutable roots : int array;
  parent : int array;
  parent_eid : int array;
  mutable iter : int;
}

type adjacency = (int * int * int) array array

type iteration_stats = {
  edges_added : int;
  died : int;
  joined : int;
  high_degree_died : int;
  death_edges_above_tally : int;
  sampled_clusters : int;
  max_adjacent : int;
}

let create g =
  let n = Graph.n g in
  {
    g;
    spanner = Array.make (Graph.m g) false;
    alive = Array.make n true;
    edge_alive = Array.make (Graph.m g) true;
    death_iter = Array.make (Graph.m g) (-1);
    cluster_of = Array.init n (fun v -> v);
    roots = Array.init n (fun v -> v);
    parent = Array.make n (-1);
    parent_eid = Array.make n (-1);
    iter = 0;
  }

let graph t = t.g

let n_clusters t = Array.length t.roots

let completed_iterations t = t.iter

let cluster_of t = t.cluster_of

let roots t = t.roots

let spanner_mask t = t.spanner

let edge_alive t eid = t.edge_alive.(eid)

let death_iteration t = Array.copy t.death_iter

let vertex_alive t v = t.alive.(v)

(* Per-vertex sorted adjacent-cluster lists: for each alive vertex, the
   minimum alive edge into each cluster it touches, ascending (w, eid);
   eids are unique, so int comparisons on (w, eid) give a total order. *)
let adjacency t =
  let n = Graph.n t.g in
  let nc = n_clusters t in
  let stamp = Array.make nc (-1) in
  let best_w = Array.make nc 0 in
  let best_e = Array.make nc 0 in
  let touched = Array.make nc 0 in
  let out = Array.make n [||] in
  for v = 0 to n - 1 do
    if t.alive.(v) then begin
      let k = ref 0 in
      Graph.iter_adj t.g v (fun u eid ->
          if t.edge_alive.(eid) && t.alive.(u) then begin
            let c = t.cluster_of.(u) in
            let w = Graph.weight t.g eid in
            if stamp.(c) <> v then begin
              stamp.(c) <- v;
              best_w.(c) <- w;
              best_e.(c) <- eid;
              touched.(!k) <- c;
              incr k
            end
            else if w < best_w.(c) || (w = best_w.(c) && eid < best_e.(c))
            then begin
              best_w.(c) <- w;
              best_e.(c) <- eid
            end
          end);
      let arr =
        Array.init !k (fun i ->
            let c = touched.(i) in
            (best_w.(c), best_e.(c), c))
      in
      Array.stable_sort
        (fun (w1, e1, _) (w2, e2, _) ->
          if w1 <> w2 then compare (w1 : int) w2 else compare (e1 : int) e2)
        arr;
      out.(v) <- arr
    end
  done;
  out

let iteration ?adjacency:adj ?(high_degree_threshold = max_int)
    ?(tally_death_threshold = max_int) t ~sampled =
  let nc = n_clusters t in
  if Array.length sampled <> nc then
    invalid_arg "Bs_core.iteration: sampled length mismatch";
  let adj = match adj with Some a -> a | None -> adjacency t in
  let n = Graph.n t.g in
  (* Renumber the sampled clusters compactly. *)
  let new_id = Array.make nc (-1) in
  let n_new = ref 0 in
  for c = 0 to nc - 1 do
    if sampled.(c) then begin
      new_id.(c) <- !n_new;
      incr n_new
    end
  done;
  let old_cluster_of = t.cluster_of in
  let new_cluster_of = Array.make n (-1) in
  (* Edge kills are recorded here and applied after the sweep, so every
     vertex decides against the same pre-iteration snapshot (synchrony). *)
  let kills = ref [] in
  let edges_added = ref 0 in
  let died = ref 0 in
  let joined = ref 0 in
  let high_degree_died = ref 0 in
  let death_edges_above_tally = ref 0 in
  let max_adjacent = ref 0 in
  let add_edge eid =
    if not t.spanner.(eid) then begin
      t.spanner.(eid) <- true;
      incr edges_added
    end
  in
  for v = 0 to n - 1 do
    if t.alive.(v) then begin
      let c = old_cluster_of.(v) in
      if sampled.(c) then new_cluster_of.(v) <- new_id.(c)
      else begin
        let a = adj.(v) in
        let d = Array.length a in
        if d > !max_adjacent then max_adjacent := d;
        (* First sampled cluster in (w, eid) order. *)
        let first_sampled = ref (-1) in
        (try
           Array.iteri
             (fun j (_, _, cj) ->
               if sampled.(cj) then begin
                 first_sampled := j;
                 raise Exit
               end)
             a
         with Exit -> ());
        if !first_sampled >= 0 then begin
          let i = !first_sampled in
          let w_i, e_i, c_i = a.(i) in
          (* Add e_j for strictly smaller weights, and e_i itself; all
             edges between v and those clusters die. *)
          let to_kill = ref [ c_i ] in
          for j = 0 to i - 1 do
            let w_j, e_j, c_j = a.(j) in
            if w_j < w_i then begin
              add_edge e_j;
              to_kill := c_j :: !to_kill
            end
          done;
          add_edge e_i;
          kills := (v, `Into !to_kill) :: !kills;
          new_cluster_of.(v) <- new_id.(c_i);
          t.parent.(v) <- Graph.other_endpoint t.g e_i v;
          t.parent_eid.(v) <- e_i;
          incr joined
        end
        else begin
          (* No sampled neighbour: v dies, adding its minimum edge into
             every adjacent cluster. *)
          Array.iter (fun (_, e_j, _) -> add_edge e_j) a;
          kills := (v, `All) :: !kills;
          t.alive.(v) <- false;
          t.parent.(v) <- -1;
          t.parent_eid.(v) <- -1;
          incr died;
          if d >= high_degree_threshold then incr high_degree_died;
          if d >= tally_death_threshold then
            death_edges_above_tally := !death_edges_above_tally + d
        end
      end
    end
  done;
  (* Apply edge deaths. *)
  let this_iter = t.iter + 1 in
  let kill_edge eid =
    if t.edge_alive.(eid) then begin
      t.edge_alive.(eid) <- false;
      t.death_iter.(eid) <- this_iter
    end
  in
  List.iter
    (fun (v, what) ->
      match what with
      | `All -> Graph.iter_adj t.g v (fun _ eid -> kill_edge eid)
      | `Into clusters ->
          let marks = Hashtbl.create 8 in
          List.iter (fun c -> Hashtbl.replace marks c ()) clusters;
          Graph.iter_adj t.g v (fun u eid ->
              if t.edge_alive.(eid) then begin
                let cu = old_cluster_of.(u) in
                if cu >= 0 && Hashtbl.mem marks cu then kill_edge eid
              end))
    !kills;
  (* New roots: one per sampled cluster, same root vertices. *)
  let new_roots = Array.make !n_new (-1) in
  for c = 0 to nc - 1 do
    if sampled.(c) then new_roots.(new_id.(c)) <- t.roots.(c)
  done;
  t.cluster_of <- new_cluster_of;
  t.roots <- new_roots;
  t.iter <- t.iter + 1;
  {
    edges_added = !edges_added;
    died = !died;
    joined = !joined;
    high_degree_died = !high_degree_died;
    death_edges_above_tally = !death_edges_above_tally;
    sampled_clusters = !n_new;
    max_adjacent = !max_adjacent;
  }

let finish t = iteration t ~sampled:(Array.make (n_clusters t) false)

let partition t =
  {
    Partition.g = t.g;
    cluster_of = Array.copy t.cluster_of;
    parent = Array.copy t.parent;
    parent_eid = Array.copy t.parent_eid;
    roots = Array.copy t.roots;
  }

let alive_quotient t =
  Contraction.of_cluster_of
    ~allow:(fun eid ->
      t.edge_alive.(eid)
      &&
      let u, v = Graph.endpoints t.g eid in
      t.alive.(u) && t.alive.(v))
    t.g t.cluster_of (n_clusters t)
