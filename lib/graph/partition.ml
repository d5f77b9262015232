type t = {
  g : Graph.t;
  cluster_of : int array;
  parent : int array;
  parent_eid : int array;
  roots : int array;
}

let count t = Array.length t.roots

let trivial g =
  let n = Graph.n g in
  {
    g;
    cluster_of = Array.init n (fun v -> v);
    parent = Array.make n (-1);
    parent_eid = Array.make n (-1);
    roots = Array.init n (fun v -> v);
  }

let of_cluster_of g cluster_of =
  let n = Graph.n g in
  if Array.length cluster_of <> n then
    invalid_arg "Partition.of_cluster_of: length mismatch";
  let cmax = Array.fold_left max (-1) cluster_of in
  let roots = Array.make (cmax + 1) (-1) in
  for v = n - 1 downto 0 do
    let c = cluster_of.(v) in
    if c < -1 then invalid_arg "Partition.of_cluster_of: bad cluster id";
    if c >= 0 then roots.(c) <- v
  done;
  Array.iteri
    (fun c r ->
      if r = -1 then
        invalid_arg
          (Printf.sprintf "Partition.of_cluster_of: empty cluster %d" c))
    roots;
  let parent = Array.make n (-1) in
  let parent_eid = Array.make n (-1) in
  let seen = Array.make n false in
  let q = Queue.create () in
  Array.iteri
    (fun c r ->
      seen.(r) <- true;
      Queue.add (r, c) q)
    roots;
  while not (Queue.is_empty q) do
    let v, c = Queue.pop q in
    Graph.iter_adj g v (fun u eid ->
        if (not seen.(u)) && cluster_of.(u) = c then begin
          seen.(u) <- true;
          parent.(u) <- v;
          parent_eid.(u) <- eid;
          Queue.add (u, c) q
        end)
  done;
  for v = 0 to n - 1 do
    if cluster_of.(v) >= 0 && not seen.(v) then
      invalid_arg "Partition.of_cluster_of: cluster not connected"
  done;
  { g; cluster_of = Array.copy cluster_of; parent; parent_eid; roots }

let members t =
  let out = Array.make (count t) [] in
  for v = Graph.n t.g - 1 downto 0 do
    let c = t.cluster_of.(v) in
    if c >= 0 then out.(c) <- v :: out.(c)
  done;
  out

let sizes t =
  let out = Array.make (count t) 0 in
  Array.iter (fun c -> if c >= 0 then out.(c) <- out.(c) + 1) t.cluster_of;
  out

let tree_edges t =
  let acc = ref [] in
  Array.iter (fun eid -> if eid >= 0 then acc := eid :: !acc) t.parent_eid;
  List.rev !acc

let depths t =
  let n = Graph.n t.g in
  let depth = Array.make n (-1) in
  let rec compute v =
    if depth.(v) >= 0 then depth.(v)
    else if t.cluster_of.(v) < 0 then -1
    else if t.parent.(v) = -1 then begin
      depth.(v) <- 0;
      0
    end
    else begin
      let d = 1 + compute t.parent.(v) in
      depth.(v) <- d;
      d
    end
  in
  for v = 0 to n - 1 do
    if t.cluster_of.(v) >= 0 then ignore (compute v)
  done;
  depth

let radius t c =
  if c < 0 || c >= count t then invalid_arg "Partition.radius: bad cluster";
  let depth = depths t in
  let best = ref 0 in
  Array.iteri
    (fun v cv -> if cv = c && depth.(v) > !best then best := depth.(v))
    t.cluster_of;
  !best

let max_radius t =
  Array.fold_left max 0 (depths t)

let is_partition t = Array.for_all (fun c -> c >= 0) t.cluster_of

let restrict t ~keep_cluster =
  let c_old = count t in
  let remap = Array.make c_old (-1) in
  let next = ref 0 in
  for c = 0 to c_old - 1 do
    if keep_cluster c then begin
      remap.(c) <- !next;
      incr next
    end
  done;
  let n = Graph.n t.g in
  let cluster_of = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let parent_eid = Array.make n (-1) in
  for v = 0 to n - 1 do
    let c = t.cluster_of.(v) in
    if c >= 0 && remap.(c) >= 0 then begin
      cluster_of.(v) <- remap.(c);
      parent.(v) <- t.parent.(v);
      parent_eid.(v) <- t.parent_eid.(v)
    end
  done;
  let roots = Array.make !next (-1) in
  Array.iteri (fun c _ -> if remap.(c) >= 0 then roots.(remap.(c)) <- t.roots.(c)) t.roots;
  { g = t.g; cluster_of; parent; parent_eid; roots }

let validate t =
  let n = Graph.n t.g in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  let check cond fmt =
    Printf.ksprintf (fun s -> if (not cond) && !result = Ok () then result := Error s) fmt
  in
  check (Array.length t.cluster_of = n) "cluster_of length";
  check (Array.length t.parent = n) "parent length";
  check (Array.length t.parent_eid = n) "parent_eid length";
  if !result <> Ok () then !result
  else begin
    let c = count t in
    Array.iteri
      (fun i r ->
        check (r >= 0 && r < n) "root %d out of range" i;
        if r >= 0 && r < n then begin
          check (t.cluster_of.(r) = i) "root %d not in its cluster" i;
          check (t.parent.(r) = -1) "root %d has a parent" i
        end)
      t.roots;
    for v = 0 to n - 1 do
      let cv = t.cluster_of.(v) in
      check (cv >= -1 && cv < c) "vertex %d: bad cluster id" v;
      if cv = -1 then begin
        check (t.parent.(v) = -1) "unclustered vertex %d has parent" v;
        check (t.parent_eid.(v) = -1) "unclustered vertex %d has parent edge" v
      end
      else if t.parent.(v) <> -1 then begin
        let p = t.parent.(v) and eid = t.parent_eid.(v) in
        check (p >= 0 && p < n) "vertex %d: parent out of range" v;
        check (eid >= 0 && eid < Graph.m t.g) "vertex %d: bad parent eid" v;
        if p >= 0 && p < n && eid >= 0 && eid < Graph.m t.g then begin
          let a, b = Graph.endpoints t.g eid in
          check ((a = v && b = p) || (a = p && b = v))
            "vertex %d: parent edge does not join v and parent" v;
          check (t.cluster_of.(p) = cv) "vertex %d: parent in other cluster" v
        end
      end
      else check (cv >= 0 && t.roots.(cv) = v) "non-root vertex %d has no parent" v
    done;
    if !result <> Ok () then !result
    else begin
      (* Acyclicity / rootedness: walking parents must reach the root. *)
      let state = Array.make n 0 in
      (* 0 unknown, 1 in progress, 2 ok *)
      let rec walk v =
        if state.(v) = 2 then true
        else if state.(v) = 1 then false
        else begin
          state.(v) <- 1;
          let ok = if t.parent.(v) = -1 then true else walk t.parent.(v) in
          state.(v) <- 2;
          ok
        end
      in
      let cyclic = ref false in
      for v = 0 to n - 1 do
        if t.cluster_of.(v) >= 0 && not (walk v) then cyclic := true
      done;
      if !cyclic then fail "parent pointers contain a cycle" else Ok ()
    end
  end
