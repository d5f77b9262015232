open! Import

type t = {
  cluster_of : int array;
  color_of_cluster : int array;
  center : int array;
  radius : int array;
  n_colors : int;
}

(* Grow a ball from [center] in the FULL graph (weak-diameter: the ball may
   pass through already-clustered vertices), counting only vertices where
   [eligible] holds.  Returns the smallest radius r such that the eligible
   count of B(r + margin) is at most twice that of B(r), together with the
   eligible members of B(r) (the new cluster) and of B(r+margin) \ B(r)
   (the deferred shell).  Such r exists with r <= margin * log2 n. *)
let carve_ball g ~eligible ~margin ~center =
  let d = Bfs.distances g center in
  let maxd = Array.fold_left max 0 d in
  let layer = Array.make (maxd + 2 + margin) 0 in
  Array.iteri
    (fun v dv -> if dv >= 0 && eligible v then layer.(dv) <- layer.(dv) + 1)
    d;
  let prefix = Array.make (Array.length layer + 1) 0 in
  Array.iteri (fun i c -> prefix.(i + 1) <- prefix.(i) + c) layer;
  let count r = prefix.(min (r + 1) (Array.length prefix - 1)) in
  let rec find r =
    if count (r + margin) <= 2 * count r then r else find (r + 1)
  in
  let r = find 0 in
  let inside = ref [] and shell = ref [] in
  Array.iteri
    (fun v dv ->
      if dv >= 0 && eligible v then
        if dv <= r then inside := v :: !inside
        else if dv <= r + margin then shell := v :: !shell)
    d;
  (r, !inside, !shell)

let decompose ?(separation = 2) g =
  if separation < 2 then invalid_arg "Network_decomposition: separation >= 2";
  let margin = separation - 1 in
  let n = Graph.n g in
  let cluster_of = Array.make n (-1) in
  let colors = ref [] in
  let centers = ref [] in
  let radii = ref [] in
  let n_clusters = ref 0 in
  let unassigned = ref n in
  let color = ref 0 in
  while !unassigned > 0 do
    (* One colour class: carve weak-diameter balls among unassigned
       vertices; shells are deferred to later colours. *)
    let eligible_now = Array.map (fun c -> c = -1) cluster_of in
    let deferred = Array.make n false in
    for v = 0 to n - 1 do
      if eligible_now.(v) && not deferred.(v) then begin
        let r, inside, shell =
          carve_ball g
            ~eligible:(fun u -> eligible_now.(u) && not deferred.(u))
            ~margin ~center:v
        in
        let cid = !n_clusters in
        incr n_clusters;
        colors := !color :: !colors;
        centers := v :: !centers;
        radii := r :: !radii;
        List.iter
          (fun u ->
            cluster_of.(u) <- cid;
            eligible_now.(u) <- false;
            decr unassigned)
          inside;
        List.iter (fun u -> deferred.(u) <- true) shell
      end
    done;
    incr color;
    if !color > (2 * n) + 4 then failwith "Network_decomposition: no progress"
  done;
  {
    cluster_of;
    color_of_cluster = Array.of_list (List.rev !colors);
    center = Array.of_list (List.rev !centers);
    radius = Array.of_list (List.rev !radii);
    n_colors = !color;
  }

let n_clusters t = Array.length t.color_of_cluster

let max_cluster_radius t = Array.fold_left max 0 t.radius

let validate g ~separation t =
  let n = Graph.n g in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length t.cluster_of <> n then err "cluster_of length"
  else if n > 0 && Array.exists (fun c -> c < 0 || c >= n_clusters t) t.cluster_of
  then err "not a partition"
  else begin
    (* Weak-diameter containment in the stated balls (distances in G). *)
    let bad = ref None in
    Array.iteri
      (fun cid center ->
        if !bad = None then begin
          let dist = Bfs.distances g center in
          Array.iteri
            (fun v c ->
              if
                c = cid
                && (dist.(v) = -1 || dist.(v) > t.radius.(cid))
                && !bad = None
              then bad := Some (cid, v))
            t.cluster_of
        end)
      t.center;
    match !bad with
    | Some (cid, v) -> err "vertex %d outside ball of cluster %d" v cid
    | None ->
        (* Same-colour separation: BFS to depth separation-1 from each
           cluster's member set. *)
        let ok = ref (Ok ()) in
        let members = Array.make (n_clusters t) [] in
        Array.iteri (fun v c -> members.(c) <- v :: members.(c)) t.cluster_of;
        Array.iteri
          (fun cid mem ->
            if !ok = Ok () then begin
              let dist, _ = Bfs.multi_source g mem in
              Array.iteri
                (fun v d ->
                  let cv = t.cluster_of.(v) in
                  if
                    d >= 0 && d < separation && cv <> cid
                    && t.color_of_cluster.(cv) = t.color_of_cluster.(cid)
                    && !ok = Ok ()
                  then ok := err "clusters %d and %d too close (d=%d)" cid cv d)
                dist
            end)
          members;
        !ok
  end

let rounds_bound g =
  let n = max 2 (Graph.n g) in
  let l = Float.log2 (float_of_int n) in
  max 1 (int_of_float ((l ** 6.0) /. 16.0))
