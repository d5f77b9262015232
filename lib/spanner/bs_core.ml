open! Import

type t = {
  g : Graph.t;
  spanner : bool array;
  alive : bool array;
  death_iter : int array;  (* -1 while the edge is alive *)
  mutable cluster_of : int array;
  mutable roots : int array;
  parent : int array;
  parent_eid : int array;
  mutable iter : int;
}

type adjacency = {
  off : int array;
  w : int array;
  eid : int array;
  cluster : int array;
}

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

let edge_alive t eid = t.death_iter.(eid) < 0

let death_iteration t = Array.copy t.death_iter

let vertex_alive t v = t.alive.(v)

(* Per-domain scratch, grown to the largest graph served: the adjacency
   rows (at most one entry per arc) and the per-cluster minimum table the
   rows are gathered with.  Keeping them out of the minor heap means a
   minor collection during an iteration has nothing of them to promote. *)
type scratch = {
  mutable adj : adjacency;
  mutable stamp : int array;
  mutable best_w : int array;
  mutable best_e : int array;
  mutable touched : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        adj = { off = [||]; w = [||]; eid = [||]; cluster = [||] };
        stamp = [||];
        best_w = [||];
        best_e = [||];
        touched = [||];
      })

let domain_scratch ~n ~arcs =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.adj.off <= n || Array.length s.adj.w < arcs then
    s.adj <-
      {
        off = Array.make (max (n + 1) (Array.length s.adj.off)) 0;
        w = Array.make (max arcs (Array.length s.adj.w)) 0;
        eid = Array.make (max arcs (Array.length s.adj.w)) 0;
        cluster = Array.make (max arcs (Array.length s.adj.w)) 0;
      };
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.best_w <- Array.make n 0;
    s.best_e <- Array.make n 0;
    s.touched <- Array.make n 0
  end;
  s

(* Sort row slice [lo, hi] of [a] by (weight, eid): quicksort with an
   insertion cutoff.  Edge ids are unique, so the order is total and any
   correct sort yields the same row. *)
let sort_row a lo hi =
  let w = a.w and e = a.eid and c = a.cluster in
  let lt i j = w.(i) < w.(j) || (w.(i) = w.(j) && e.(i) < e.(j)) in
  let swap i j =
    let tw = w.(i) and te = e.(i) and tc = c.(i) in
    w.(i) <- w.(j);
    e.(i) <- e.(j);
    c.(i) <- c.(j);
    w.(j) <- tw;
    e.(j) <- te;
    c.(j) <- tc
  in
  let rec go lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi do
        let j = ref i in
        while !j > lo && lt !j (!j - 1) do
          swap !j (!j - 1);
          decr j
        done
      done
    else begin
      let mid = (lo + hi) lsr 1 in
      if lt mid lo then swap mid lo;
      if lt hi lo then swap hi lo;
      if lt hi mid then swap hi mid;
      swap mid hi;
      let i = ref lo in
      for j = lo to hi - 1 do
        if lt j hi then begin
          swap !i j;
          incr i
        end
      done;
      swap !i hi;
      go lo (!i - 1);
      go (!i + 1) hi
    end
  in
  if hi > lo then go lo hi

(* Per-vertex sorted adjacent-cluster rows: for each alive vertex, the
   minimum alive edge into each cluster it touches, ascending (w, eid). *)
let adjacency t =
  let n = Graph.n t.g in
  let nc = n_clusters t in
  let s = domain_scratch ~n:(max n nc) ~arcs:(Graph.arc_count t.g) in
  let a = s.adj and stamp = s.stamp and best_w = s.best_w in
  let best_e = s.best_e and touched = s.touched in
  Array.fill stamp 0 nc (-1);
  let pos = ref 0 in
  for v = 0 to n - 1 do
    a.off.(v) <- !pos;
    if t.alive.(v) then begin
      let k = ref 0 in
      Graph.iter_adj t.g v (fun u eid ->
          if edge_alive t eid && t.alive.(u) then begin
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
      for i = 0 to !k - 1 do
        let c = touched.(i) in
        a.w.(!pos + i) <- best_w.(c);
        a.eid.(!pos + i) <- best_e.(c);
        a.cluster.(!pos + i) <- c
      done;
      sort_row a !pos (!pos + !k - 1);
      pos := !pos + !k
    end
  done;
  a.off.(n) <- !pos;
  a

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
        let lo = adj.off.(v) and hi = adj.off.(v + 1) in
        let d = hi - lo in
        if d > !max_adjacent then max_adjacent := d;
        (* First sampled cluster in (w, eid) order. *)
        let first_sampled = ref lo in
        while !first_sampled < hi && not sampled.(adj.cluster.(!first_sampled))
        do
          incr first_sampled
        done;
        if !first_sampled < hi then begin
          let i = !first_sampled in
          let w_i = adj.w.(i) and e_i = adj.eid.(i) and c_i = adj.cluster.(i) in
          (* Add e_j for strictly smaller weights, and e_i itself; all
             edges between v and those clusters die. *)
          let to_kill = ref [ c_i ] in
          for j = lo to i - 1 do
            if adj.w.(j) < w_i then begin
              add_edge adj.eid.(j);
              to_kill := adj.cluster.(j) :: !to_kill
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
          for j = lo to hi - 1 do
            add_edge adj.eid.(j)
          done;
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
  (* Apply edge deaths.  [marks.(c) = v]: v's edges into old cluster c
     die. *)
  let marks = Array.make nc (-1) in
  let this_iter = t.iter + 1 in
  let kill_edge eid =
    if edge_alive t eid then t.death_iter.(eid) <- this_iter
  in
  List.iter
    (fun (v, what) ->
      match what with
      | `All -> Graph.iter_adj t.g v (fun _ eid -> kill_edge eid)
      | `Into clusters ->
          List.iter (fun c -> marks.(c) <- v) clusters;
          Graph.iter_adj t.g v (fun u eid ->
              if edge_alive t eid then begin
                let cu = old_cluster_of.(u) in
                if cu >= 0 && marks.(cu) = v then kill_edge eid
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
      edge_alive t eid
      &&
      let e = Graph.edge t.g eid in
      t.alive.(e.Graph.u) && t.alive.(e.Graph.v))
    t.g t.cluster_of (n_clusters t)
