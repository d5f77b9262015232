open! Import

type mode = Weighted | Unweighted

type ordering = Simple | Network_decomposition

type guarantee = {
  iteration : int;
  cluster_bound : int;
  clusters : int;
  edge_bound : float;
  edges_added : int;
  high_degree_died : int;
}

type outcome = { spanner : Spanner.t; guarantees : guarantee list }

let iota = 8.0

(* ln g, floored at 1 so the g = 1 and g = 2 cases stay meaningful. *)
let lng g = Float.max 1.0 (log (float_of_int g))

(* Expected contribution of one vertex to the weighted utility (3.1),
   b_v + n^5·h_v (b_v = edges v adds, h_v = [d >= xi and v dies]), under
   independent sampling with the per-cluster probabilities [qeff] (p/4
   unfixed, 0.0 or 1.0 fixed), conditioned on v's own cluster being
   unsampled: hence the (1 - q_own) factor and the 0 probability of
   own-cluster entries.  E[b_v] is a prefix sum in (w, eid) order. *)
let weighted_contrib ~qeff ~n5 ~xi ~strict_before adj_v c_own =
  let d = Array.length adj_v in
  let q_own = qeff.(c_own) in
  if q_own >= 1.0 then 0.0
  else begin
    let e_b = ref 0.0 in
    let pnone = ref 1.0 in
    Array.iteri
      (fun i (_, _, c_i) ->
        let q_i = if c_i = c_own then 0.0 else qeff.(c_i) in
        e_b := !e_b +. (q_i *. !pnone *. float_of_int (strict_before.(i) + 1));
        pnone := !pnone *. (1.0 -. q_i))
      adj_v;
    let p_die = !pnone in
    let h_term = if d >= xi then n5 *. p_die else 0.0 in
    (1.0 -. q_own) *. (!e_b +. (p_die *. float_of_int d) +. h_term)
  end

(* For each vertex, strict_before.(i) = number of adjacency entries with
   weight strictly below entry i's weight (= index of the first entry with
   the same weight, since the array is sorted). *)
let strict_before_of adj_v =
  let d = Array.length adj_v in
  let out = Array.make d 0 in
  let block_start = ref 0 in
  for i = 1 to d - 1 do
    let w_prev, _, _ = adj_v.(i - 1) and w_i, _, _ = adj_v.(i) in
    if w_i > w_prev then block_start := i;
    out.(i) <- !block_start
  done;
  out

let seed_bits n0 =
  let l = Float.log2 (float_of_int (n0 + 2)) in
  int_of_float (ceil (l *. Float.log2 (l +. 2.0))) + 1

(* Choose the sampling vector for one iteration by conditional expectation. *)
let choose_sampling ~mode ~ordering ~state ~adj ~q ~kappa ~n5 ~xi ~tau =
  let n = Graph.n (Bs_core.graph state) in
  let nc = Bs_core.n_clusters state in
  let cluster_of = Bs_core.cluster_of state in
  let qeff = Array.make nc q in
  (* Affected vertices per cluster, ascending: members plus adjacency
     touchers ([adj] holds one entry per cluster, so none repeats), and
     each vertex's count of non-own entries, all unfixed so far. *)
  let scan f =
    for v = 0 to n - 1 do
      if Bs_core.vertex_alive state v then begin
        f cluster_of.(v) v;
        Array.iter (fun (_, _, c) -> if c <> cluster_of.(v) then f c v) adj.(v)
      end
    done
  in
  let fill = Array.make nc 0 and unfixed = Array.make n 0 in
  scan (fun c v ->
      fill.(c) <- fill.(c) + 1;
      if c <> cluster_of.(v) then unfixed.(v) <- unfixed.(v) + 1);
  let affected = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 nc 0;
  scan (fun c v ->
      affected.(c).(fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1);
  let cluster_order, nd =
    match ordering with
    | Simple -> (Array.init nc Fun.id, None)
    | Network_decomposition ->
        let contraction = Bs_core.alive_quotient state in
        let open Network_decomposition in
        let nd = decompose ~separation:3 contraction.Contraction.quotient in
        let color c = nd.color_of_cluster.(nd.cluster_of.(c)) in
        let order = Array.init nc Fun.id in
        Array.stable_sort (fun a b -> compare (color a : int) (color b)) order;
        (order, Some nd)
  in
  let fix_to_one =
    match mode with
    | Weighted ->
        let strict = Array.map strict_before_of adj in
        let eval_affected j =
          Array.fold_left
            (fun acc v ->
              acc
              +. weighted_contrib ~qeff ~n5 ~xi ~strict_before:strict.(v)
                   adj.(v) cluster_of.(v))
            0.0 affected.(j)
        in
        fun j ->
          qeff.(j) <- 1.0;
          let e1 = kappa +. eval_affected j in
          qeff.(j) <- 0.0;
          e1 < eval_affected j
    | Unweighted ->
        (* (3.2), d·[d >= tau] + n^5·[d >= xi], times P(v dies), given an
           unsampled own cluster, in O(1) per affected vertex.  A fixed
           cluster multiplies by exactly 1.0 or 0.0, so a term is 0 for good
           once its own or a touched cluster is fixed to 1 ([dead]), else
           p_die = pow.(unfixed v), the walk's left fold bit for bit.  X_j = 1
           zeroes every affected term: e1 = kappa exactly. *)
        let max_d = Array.fold_left (fun a r -> max a (Array.length r)) 0 adj in
        let pow = Array.make (max_d + 1) 1.0 in
        for u = 1 to max_d do
          pow.(u) <- pow.(u - 1) *. (1.0 -. q)
        done;
        let dead = Array.make n false in
        fun j ->
          let aff = affected.(j) and e0 = ref 0.0 in
          for i = 0 to Array.length aff - 1 do
            let v = aff.(i) in
            if not dead.(v) then begin
              let own = cluster_of.(v) and d = Array.length adj.(v) in
              let p_die = pow.(unfixed.(v) - if own = j then 0 else 1) in
              let b = if d >= tau then p_die *. float_of_int d else 0.0 in
              let h = if d >= xi then n5 *. p_die else 0.0 in
              let q_own = if own = j then 0.0 else qeff.(own) in
              e0 := !e0 +. ((1.0 -. q_own) *. (b +. h))
            end
          done;
          let one = kappa < !e0 in
          Array.iter
            (fun v ->
              if one then dead.(v) <- true
              else if cluster_of.(v) <> j then unfixed.(v) <- unfixed.(v) - 1)
            aff;
          one
  in
  Array.iter
    (fun j -> qeff.(j) <- (if fix_to_one j then 1.0 else 0.0))
    cluster_order;
  (Array.map (fun x -> x >= 1.0) qeff, nd)

let simulate ?mode ?(ordering = Simple) ~state ~p ~iters ~rounds () =
  let g = Bs_core.graph state in
  if p <= 0.0 || p >= 1.0 then invalid_arg "Bs_derand.simulate: p in (0,1)";
  let mode =
    match mode with
    | Some m -> m
    | None -> if Graph.is_unit_weighted g then Unweighted else Weighted
  in
  let n0 = max 2 (Bs_core.n_clusters state) in
  let n0f = float_of_int n0 in
  let n5 = n0f ** 5.0 in
  let xi = int_of_float (ceil (40.0 *. log n0f /. p)) in
  let tau =
    int_of_float (ceil (4.0 *. lng iters /. p))
  in
  let q = p /. 4.0 in
  let bits = seed_bits n0 in
  let guarantees = ref [] in
  for i = 1 to iters do
    let adj = Bs_core.adjacency state in
    let kappa =
      match mode with
      | Weighted -> iota /. (p ** float_of_int (i + 1))
      | Unweighted ->
          iota *. lng iters /. (float_of_int iters *. (p ** float_of_int (i + 1)))
    in
    let sampled, nd =
      choose_sampling ~mode ~ordering ~state ~adj ~q ~kappa ~n5 ~xi ~tau
    in
    let stats =
      Bs_core.iteration ~adjacency:adj ~high_degree_threshold:xi
        ~tally_death_threshold:tau state ~sampled
    in
    (* Round accounting per Appendix C: per colour class, fix the seed bits
       one by one, each costing an aggregation over ND-cluster Steiner
       trees of depth (cluster radius + ND diameter). *)
    let n_colors, nd_diam =
      match nd with
      | Some d ->
          ( d.Network_decomposition.n_colors,
            2 * Network_decomposition.max_cluster_radius d )
      | None ->
          let l = int_of_float (ceil (Float.log2 n0f)) in
          (l + 1, 4 * l)
    in
    Rounds.span rounds (Printf.sprintf "iter-%d" i) (fun () ->
        Rounds.charge ~label:"bs-derand:fixing" rounds
          (n_colors * bits * ((2 * (i + nd_diam)) + 2));
        Rounds.charge_aggregate ~label:"bs:iteration" rounds ~radius:i);
    (* Lemma 3.3 guarantees, now deterministic facts. *)
    let cluster_bound =
      int_of_float (floor ((n0f *. (p ** float_of_int i)) +. 1e-6))
    in
    let edge_bound =
      match mode with
      | Weighted -> iota *. n0f /. p
      | Unweighted -> iota *. n0f *. lng iters /. (p *. float_of_int iters)
    in
    let counted_edges =
      match mode with
      | Weighted -> stats.Bs_core.edges_added
      | Unweighted -> stats.Bs_core.death_edges_above_tally
    in
    if stats.Bs_core.sampled_clusters > cluster_bound then
      failwith
        (Printf.sprintf
           "Bs_derand: cluster guarantee violated (iter %d: %d > %d)" i
           stats.Bs_core.sampled_clusters cluster_bound);
    if float_of_int counted_edges > edge_bound +. 1.0 then
      failwith
        (Printf.sprintf
           "Bs_derand: edge guarantee violated (iter %d: %d > %.1f)" i
           counted_edges edge_bound);
    if stats.Bs_core.high_degree_died > 0 then
      failwith
        (Printf.sprintf "Bs_derand: a high-degree vertex died (iter %d)" i);
    guarantees :=
      {
        iteration = i;
        cluster_bound;
        clusters = stats.Bs_core.sampled_clusters;
        edge_bound;
        edges_added = counted_edges;
        high_degree_died = stats.Bs_core.high_degree_died;
      }
      :: !guarantees
  done;
  List.rev !guarantees

let run ?(ordering = Simple) ?k g =
  let n = Graph.n g in
  let k =
    match k with
    | Some k -> k
    | None -> max 1 (int_of_float (ceil (Float.log2 (float_of_int (max 2 n)))))
  in
  if k < 1 then invalid_arg "Bs_derand.run: k >= 1";
  let state = Bs_core.create g in
  let rounds = Rounds.create () in
  let guarantees =
    Rounds.span rounds "bs-derand" (fun () ->
        let guarantees =
          if k = 1 then []
          else begin
            let p = float_of_int (max 2 n) ** (-1.0 /. float_of_int k) in
            simulate ~ordering ~state ~p ~iters:(k - 1) ~rounds ()
          end
        in
        ignore (Bs_core.finish state);
        Rounds.charge_aggregate ~label:"bs:final" rounds ~radius:k;
        guarantees)
  in
  let spanner =
    { Spanner.keep = Array.copy (Bs_core.spanner_mask state); rounds }
  in
  { spanner; guarantees }

let size_bound ~n ~k ~weighted =
  let nf = float_of_int n and kf = float_of_int k in
  let p = nf ** (-1.0 /. kf) in
  let extremal = nf ** (1.0 +. (1.0 /. kf)) in
  let g = max 1 (k - 1) in
  if weighted then (iota *. nf *. float_of_int g /. p) +. extremal
  else
    (nf *. float_of_int g)
    +. (4.0 *. nf *. lng g /. p)
    +. (iota *. nf *. lng g /. p)
    +. extremal
