type edge = { u : int; v : int; w : int; id : int }

type csr = {
  off : int array;
  dst : int array;
  eid : int array;
  rev : int array;
}

type t = {
  n : int;
  edges : edge array;
  adj_off : int array; (* length n+1 *)
  adj_dst : int array; (* length 2m; each vertex slice strictly increasing *)
  adj_eid : int array; (* length 2m *)
  adj_rev : int array; (* length 2m; CSR index of the reverse arc *)
  view : csr; (* preallocated zero-copy view over the four arrays above *)
}

let n g = g.n

let m g = Array.length g.edges

let edges g = g.edges

let edge g id = g.edges.(id)

let weight g id = g.edges.(id).w

let endpoints g id =
  let e = g.edges.(id) in
  (e.u, e.v)

let other_endpoint g eid x =
  let e = g.edges.(eid) in
  if e.u = x then e.v
  else if e.v = x then e.u
  else invalid_arg "Graph.other_endpoint: vertex not on edge"

let degree g v = g.adj_off.(v + 1) - g.adj_off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let iter_adj g v f =
  for i = g.adj_off.(v) to g.adj_off.(v + 1) - 1 do
    f g.adj_dst.(i) g.adj_eid.(i)
  done

let fold_adj g v f init =
  let acc = ref init in
  iter_adj g v (fun u eid -> acc := f !acc u eid);
  !acc

let neighbors g v = List.rev (fold_adj g v (fun acc u eid -> (u, eid) :: acc) [])

(* ---------- arc-level access ----------

   The canonical edge array is sorted by (u, v) with u < v, and [build]
   scatters it in one pass, so every vertex's [adj_dst] slice lists first
   its smaller neighbours in increasing order, then its larger neighbours
   in increasing order — i.e. each slice is strictly increasing.  That
   invariant is what makes [arc_index] a binary search and [neighbors]
   sorted by construction; [build] asserts it. *)

let arc_count g = Array.length g.adj_dst

(* The view record is built once at construction time, so hot loops (the
   simulator fetches it per run, once, outside the round loop) get the raw
   arrays without allocating anything. *)
let csr g = g.view

let arc_index g v u =
  let lo = ref g.adj_off.(v) and hi = ref (g.adj_off.(v + 1) - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let d = g.adj_dst.(mid) in
    if d = u then res := mid else if d < u then lo := mid + 1 else hi := mid - 1
  done;
  !res

let iter_edges g f = Array.iter f g.edges

let total_weight g = Array.fold_left (fun acc e -> acc + e.w) 0 g.edges

let is_unit_weighted g = Array.for_all (fun e -> e.w = 1) g.edges

(* Index an already-canonical edge array (sorted by (u, v), u < v,
   deduplicated): one counting pass, one scatter pass.  Shared by the
   list-based [build] below and the streaming [of_edge_iter], which
   constructs [edges] without ever materializing a tuple list. *)
let index_edges n edges =
  let m = Array.length edges in
  (* Degrees counted at [v + 1], then summed into offsets in place. *)
  let adj_off = Array.make (n + 1) 0 in
  Array.iter
    (fun e ->
      adj_off.(e.u + 1) <- adj_off.(e.u + 1) + 1;
      adj_off.(e.v + 1) <- adj_off.(e.v + 1) + 1)
    edges;
  for v = 0 to n - 1 do
    adj_off.(v + 1) <- adj_off.(v + 1) + adj_off.(v)
  done;
  let cursor = Array.copy adj_off in
  let adj_dst = Array.make (2 * m) 0 in
  let adj_eid = Array.make (2 * m) 0 in
  let adj_rev = Array.make (2 * m) 0 in
  Array.iter
    (fun e ->
      let pu = cursor.(e.u) and pv = cursor.(e.v) in
      adj_dst.(pu) <- e.v;
      adj_eid.(pu) <- e.id;
      adj_dst.(pv) <- e.u;
      adj_eid.(pv) <- e.id;
      adj_rev.(pu) <- pv;
      adj_rev.(pv) <- pu;
      cursor.(e.u) <- pu + 1;
      cursor.(e.v) <- pv + 1)
    edges;
  (* Sorted-slice invariant backing the arc_index binary search. *)
  for v = 0 to n - 1 do
    for i = adj_off.(v) + 1 to adj_off.(v + 1) - 1 do
      assert (adj_dst.(i - 1) < adj_dst.(i))
    done
  done;
  let view = { off = adj_off; dst = adj_dst; eid = adj_eid; rev = adj_rev } in
  { n; edges; adj_off; adj_dst; adj_eid; adj_rev; view }

let build n canonical_edges =
  (* canonical_edges: deduplicated, u < v, valid. *)
  index_edges n (Array.mapi (fun id (u, v, w) -> { u; v; w; id }) canonical_edges)

(* In-place quicksort (insertion cutoff) of a [bv]/[bw] bucket slice by
   destination — the streamed builder's per-vertex neighbour sort. *)
let sort_bucket bv bw lo hi =
  let swap i j =
    let tv = bv.(i) and tw = bw.(i) in
    bv.(i) <- bv.(j);
    bw.(i) <- bw.(j);
    bv.(j) <- tv;
    bw.(j) <- tw
  in
  let rec go lo hi =
    if hi - lo <= 12 then
      for i = lo + 1 to hi do
        let v = bv.(i) and w = bw.(i) in
        let j = ref (i - 1) in
        while !j >= lo && bv.(!j) > v do
          bv.(!j + 1) <- bv.(!j);
          bw.(!j + 1) <- bw.(!j);
          decr j
        done;
        bv.(!j + 1) <- v;
        bw.(!j + 1) <- w
      done
    else begin
      let mid = (lo + hi) lsr 1 in
      (* median-of-three pivot, moved to [hi] *)
      if bv.(mid) < bv.(lo) then swap mid lo;
      if bv.(hi) < bv.(lo) then swap hi lo;
      if bv.(hi) < bv.(mid) then swap hi mid;
      swap mid hi;
      let p = bv.(hi) in
      let i = ref lo in
      for j = lo to hi - 1 do
        if bv.(j) <= p then begin
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

let of_edge_iter ~n iter =
  if n < 0 then invalid_arg "Graph.of_edge_iter: negative n";
  (* Pass 1: count edges per smaller endpoint (validating as we go). *)
  let cnt = Array.make (max 1 n) 0 in
  let total = ref 0 in
  iter (fun u v w ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edge_iter: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edge_iter: self-loop";
      if w < 0 then invalid_arg "Graph.of_edge_iter: negative weight";
      let a = if u < v then u else v in
      cnt.(a) <- cnt.(a) + 1;
      incr total);
  let boff = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    boff.(v + 1) <- boff.(v) + cnt.(v)
  done;
  (* Pass 2: scatter the larger endpoints and weights into per-vertex
     buckets — two flat int arrays, never a tuple list. *)
  let bv = Array.make (max 1 !total) 0 in
  let bw = Array.make (max 1 !total) 0 in
  let cur = Array.copy boff in
  iter (fun u v w ->
      let a = if u < v then u else v and b = if u < v then v else u in
      let p = cur.(a) in
      if p >= boff.(a + 1) then
        invalid_arg "Graph.of_edge_iter: stream changed between passes";
      bv.(p) <- b;
      bw.(p) <- w;
      cur.(a) <- p + 1);
  for v = 0 to n - 1 do
    if cur.(v) <> boff.(v + 1) then
      invalid_arg "Graph.of_edge_iter: stream changed between passes"
  done;
  (* Sort each bucket by destination and merge parallel edges keeping the
     minimum weight (matching [canonicalize]); compact in place. *)
  let m = ref 0 in
  for u = 0 to n - 1 do
    let lo = boff.(u) and hi = boff.(u + 1) - 1 in
    sort_bucket bv bw lo hi;
    let k = ref lo in
    for i = lo to hi do
      if i > lo && bv.(i) = bv.(i - 1) then begin
        if bw.(i) < bw.(!k - 1) then bw.(!k - 1) <- bw.(i)
      end
      else begin
        bv.(!k) <- bv.(i);
        bw.(!k) <- bw.(i);
        incr k
      end
    done;
    cnt.(u) <- !k - lo;
    m := !m + (!k - lo)
  done;
  (* Emit the canonical edge array in (u, v) order — bucket order is
     exactly that — and index it. *)
  let dummy = { u = 0; v = 0; w = 0; id = 0 } in
  let edges = Array.make !m dummy in
  let id = ref 0 in
  for u = 0 to n - 1 do
    let lo = boff.(u) in
    for i = lo to lo + cnt.(u) - 1 do
      edges.(!id) <- { u; v = bv.(i); w = bw.(i); id = !id };
      incr id
    done
  done;
  index_edges n edges

let canonicalize ~n triples =
  let check (u, v, w) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    if w < 0 then invalid_arg "Graph.of_edges: negative weight";
    if u < v then (u, v, w) else (v, u, w)
  in
  let canon = Array.map check triples in
  Array.stable_sort
    (fun (u1, v1, w1) (u2, v2, w2) ->
      if u1 <> u2 then compare (u1 : int) u2
      else if v1 <> v2 then compare (v1 : int) v2
      else compare (w1 : int) w2)
    canon;
  (* Merge parallel edges keeping the minimum weight (sort puts it first). *)
  let out = ref [] in
  Array.iter
    (fun (u, v, w) ->
      match !out with
      | (u', v', _) :: _ when u' = u && v' = v -> ()
      | _ -> out := (u, v, w) :: !out)
    canon;
  Array.of_list (List.rev !out)

let of_edge_array ~n triples =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  build n (canonicalize ~n triples)

let of_edges ~n triples = of_edge_array ~n (Array.of_list triples)

let empty n = of_edge_array ~n [||]

let find_edge g a b =
  if a = b then None
  else begin
    let a, b = if degree g a <= degree g b then (a, b) else (b, a) in
    let i = arc_index g a b in
    if i < 0 then None else Some g.adj_eid.(i)
  end

let mem_edge g a b = a <> b && arc_index g a b >= 0

let with_weights g f =
  let edges' = Array.map (fun e -> { e with w = f e.id }) g.edges in
  Array.iter (fun e -> if e.w < 0 then invalid_arg "Graph.with_weights: negative") edges';
  { g with edges = edges' }

let with_unit_weights g = with_weights g (fun _ -> 1)

let sub_with_mapping g keep =
  if Array.length keep <> m g then
    invalid_arg "Graph.sub_with_mapping: mask length mismatch";
  let kept = Array.fold_left (fun k b -> if b then k + 1 else k) 0 keep in
  (* [t] is immutable, so a mask that keeps every edge can share [g]. *)
  if kept = m g then (g, Array.init kept Fun.id)
  else begin
    let mapping = Array.make kept 0 in
    let k = ref 0 in
    Array.iteri
      (fun id b ->
        if b then begin
          mapping.(!k) <- id;
          incr k
        end)
      keep;
    (* A filtered canonical edge sequence is itself canonical: index the
       kept records directly, with new ids in filtered order (records
       before the first dropped edge keep theirs and are shared). *)
    let edges =
      Array.mapi
        (fun id eid ->
          let e = g.edges.(eid) in
          if e.id = id then e else { e with id })
        mapping
    in
    (index_edges g.n edges, mapping)
  end

(* Merge an edit set into the canonical edge array: one pass, no sort.
   Records before the first edit keep their ids and are shared with [g];
   the strictly-increasing check on the emitted (u, v) sequence catches an
   insert that joins a surviving edge's endpoints or arrives out of order. *)
let splice g ~delete ~insert =
  let m = m g and nd = Array.length delete and ni = Array.length insert in
  let fail () = invalid_arg "Graph.splice: malformed edit set" in
  Array.iteri
    (fun i e ->
      if e < 0 || e >= m || (i > 0 && delete.(i - 1) >= e) then fail ())
    delete;
  Array.iter
    (fun (u, v, w) -> if u < 0 || u >= v || v >= g.n || w < 0 then fail ())
    insert;
  let map = Array.make m (-1) in
  let edges = Array.make (m - nd + ni) { u = 0; v = 0; w = 0; id = 0 } in
  let id = ref 0 in
  let emit e =
    (if !id > 0 then
       let p = edges.(!id - 1) in
       if p.u > e.u || (p.u = e.u && p.v >= e.v) then fail ());
    edges.(!id) <- e;
    incr id
  in
  let i = ref 0 and j = ref 0 and d = ref 0 in
  while !i < m || !j < ni do
    if !i < m && !d < nd && delete.(!d) = !i then begin
      incr d;
      incr i
    end
    else begin
      let old_first =
        !i < m
        && (!j >= ni
           ||
           let e = g.edges.(!i) and u, v, _ = insert.(!j) in
           e.u < u || (e.u = u && e.v < v))
      in
      if old_first then begin
        let e = g.edges.(!i) in
        map.(!i) <- !id;
        emit (if e.id = !id then e else { e with id = !id });
        incr i
      end
      else begin
        let u, v, w = insert.(!j) in
        emit { u; v; w; id = !id };
        incr j
      end
    end
  done;
  (index_edges g.n edges, map)

let sub_by_eids g keep =
  if Array.length keep <> m g then
    invalid_arg "Graph.sub_by_eids: mask length mismatch";
  fst (sub_with_mapping g keep)

let pp fmt g =
  let lo, hi =
    if m g = 0 then (0, 0)
    else
      Array.fold_left
        (fun (lo, hi) e -> (min lo e.w, max hi e.w))
        (g.edges.(0).w, g.edges.(0).w)
        g.edges
  in
  Format.fprintf fmt "graph(n=%d, m=%d, w∈[%d,%d])" g.n (m g) lo hi
