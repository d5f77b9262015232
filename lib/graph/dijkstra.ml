module Heap = Ultraspan_util.Pqueue.Int

let infinity = max_int

(* Per-domain scratch.  Between searches [dist] reads [infinity] except at
   the last search's reached vertices [reached.(0 .. nreached - 1)], which
   the next search resets first, and [target] is all [false]. *)
type scratch = {
  dist : int array;
  reached : int array;
  mutable nreached : int;
  target : bool array;
  heap : Heap.t;
}

let make_scratch n =
  {
    dist = Array.make n infinity;
    reached = Array.make n 0;
    nreached = 0;
    target = Array.make n false;
    heap = Heap.create ();
  }

(* The calling domain's scratch, grown to the largest [n] it has searched. *)
let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let domain_scratch n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.dist >= n then sc
  else begin
    let sc = make_scratch n in
    Domain.DLS.set scratch_key sc;
    sc
  end

(* Pushes carry strictly decreasing distances per vertex, so the pop with
   [d = dist.(v)] is the vertex's first and settles it; later pops are
   stale. *)
let search ?keep ?(budget = infinity) ?targets g s =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range";
  let masked, mask =
    match keep with
    | None -> (false, [||])
    | Some k ->
        if Array.length k <> Graph.m g then
          invalid_arg "Dijkstra: mask length mismatch";
        (true, k)
  in
  let targets = Option.value targets ~default:[||] in
  let nt = Array.length targets in
  for i = 0 to nt - 1 do
    if targets.(i) < 0 || targets.(i) >= n then
      invalid_arg "Dijkstra: target out of range"
  done;
  let sc = domain_scratch n in
  let { dist; reached; target; heap; _ } = sc in
  for i = 0 to sc.nreached - 1 do
    dist.(reached.(i)) <- infinity
  done;
  (* [remaining = -1] never reaches 0: no targets, run until empty *)
  let remaining = ref (if nt = 0 then -1 else 0) in
  for i = 0 to nt - 1 do
    let t = targets.(i) in
    if not target.(t) then begin
      target.(t) <- true;
      incr remaining
    end
  done;
  let { Graph.off; dst; eid; _ } = Graph.csr g and edges = Graph.edges g in
  Heap.clear heap;
  dist.(s) <- 0;
  reached.(0) <- s;
  sc.nreached <- 1;
  Heap.push heap 0 s;
  let scanned = ref 0 in
  while !remaining <> 0 && not (Heap.is_empty heap) do
    let d = Heap.min_prio heap in
    let v = Heap.pop heap in
    if d = dist.(v) then begin
      if target.(v) then begin
        target.(v) <- false;
        decr remaining
      end;
      if !remaining <> 0 then
        for a = off.(v) to off.(v + 1) - 1 do
          let e = eid.(a) in
          if (not masked) || mask.(e) then begin
            incr scanned;
            let u = dst.(a) in
            let nd = d + edges.(e).Graph.w in
            if nd <= budget && nd < dist.(u) then begin
              if dist.(u) = infinity then begin
                reached.(sc.nreached) <- u;
                sc.nreached <- sc.nreached + 1
              end;
              dist.(u) <- nd;
              Heap.push heap nd u
            end
          end
        done
    end
  done;
  for i = 0 to nt - 1 do
    target.(targets.(i)) <- false
  done;
  !scanned

let dist v = (Domain.DLS.get scratch_key).dist.(v)

let iter_reached f =
  let sc = Domain.DLS.get scratch_key in
  for i = 0 to sc.nreached - 1 do
    let v = sc.reached.(i) in
    f v sc.dist.(v)
  done

let distances ?keep g s =
  ignore (search ?keep g s);
  let d = Array.make (Graph.n g) infinity in
  iter_reached (fun v dv -> d.(v) <- dv);
  d

let distance ?keep g s t =
  ignore (search ?keep ~targets:[| t |] g s);
  dist t

(* ---------- many budgeted balls at once ---------- *)

type balls = { dists : int array; covered : bool array; work : int }

(* Per-domain scratch of {!balls}.  Between calls [bdist] reads [infinity]
   and [covered] [false] except at the last call's [rows] rows (stride
   [stride]) and covered vertices [touched.(0 .. ntouched - 1)], which the
   next call resets first.  [seen], [front] and [next] are all zero. *)
type ball_scratch = {
  mutable bdist : int array;
  mutable rows : int;
  mutable stride : int;
  cov : bool array;
  touched : int array;
  mutable ntouched : int;
  seen : int array;
  front : int array;
  next : int array;
  flist : int array;
  nlist : int array;
  chunk : int array;  (* vertices the current word's sources reached *)
}

let make_ball_scratch n =
  {
    bdist = [||];
    rows = 0;
    stride = 0;
    cov = Array.make n false;
    touched = Array.make n 0;
    ntouched = 0;
    seen = Array.make n 0;
    front = Array.make n 0;
    next = Array.make n 0;
    flist = Array.make n 0;
    nlist = Array.make n 0;
    chunk = Array.make n 0;
  }

let ball_key = Domain.DLS.new_key (fun () -> make_ball_scratch 0)

(* Sources per machine word; the sign bit stays clear. *)
let word = Sys.int_size - 1

(* [low_bit.((1 lsl j) mod 67) = j] for j < [word]: 2 generates the
   multiplicative group mod 67, so those residues are distinct. *)
let low_bit =
  let t = Array.make 67 0 in
  for j = 0 to word - 1 do
    t.((1 lsl j) mod 67) <- j
  done;
  t

let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let cover sc v =
  if not sc.cov.(v) then begin
    sc.cov.(v) <- true;
    sc.touched.(sc.ntouched) <- v;
    sc.ntouched <- sc.ntouched + 1
  end

(* One budgeted breadth-first search per source, [word] sources at a time:
   bit j of [seen.(v)] says source [base + j] has reached [v], and a layer
   ORs the frontier's words across the kept arcs.  Every edge searched has
   weight 1, so hop counts are the distances {!search} would settle. *)
let bfs_balls sc ~masked ~mask ~budget g sources =
  let n = Graph.n g and ns = Array.length sources in
  let { Graph.off; dst; eid; _ } = Graph.csr g in
  let { bdist; seen; front; next; chunk; _ } = sc in
  let work = ref 0 in
  let base = ref 0 in
  while !base < ns do
    let b0 = !base in
    let cnt = min word (ns - b0) in
    let flist = ref sc.flist and nlist = ref sc.nlist in
    let nf = ref 0 and nchunk = ref 0 in
    for j = 0 to cnt - 1 do
      let s = sources.(b0 + j) in
      if seen.(s) = 0 then begin
        !flist.(!nf) <- s;
        incr nf;
        chunk.(!nchunk) <- s;
        incr nchunk
      end;
      seen.(s) <- seen.(s) lor (1 lsl j);
      front.(s) <- seen.(s);
      bdist.(((b0 + j) * n) + s) <- 0
    done;
    let d = ref 0 in
    while !nf > 0 && !d < budget do
      let fl = !flist and nl = !nlist in
      let nn = ref 0 in
      for i = 0 to !nf - 1 do
        let v = fl.(i) in
        let fv = front.(v) in
        for a = off.(v) to off.(v + 1) - 1 do
          if (not masked) || mask.(eid.(a)) then begin
            let u = dst.(a) in
            let nw = fv land lnot seen.(u) in
            if nw <> 0 then begin
              if next.(u) = 0 then begin
                nl.(!nn) <- u;
                incr nn
              end;
              next.(u) <- next.(u) lor nw
            end
          end
        done
      done;
      incr d;
      for i = 0 to !nf - 1 do
        front.(fl.(i)) <- 0
      done;
      for i = 0 to !nn - 1 do
        let u = nl.(i) in
        let nw = next.(u) in
        next.(u) <- 0;
        if seen.(u) = 0 then begin
          chunk.(!nchunk) <- u;
          incr nchunk
        end;
        seen.(u) <- seen.(u) lor nw;
        front.(u) <- nw;
        let x = ref nw in
        while !x <> 0 do
          let low = !x land - !x in
          bdist.(((b0 + low_bit.(low mod 67)) * n) + u) <- !d;
          x := !x lxor low
        done
      done;
      flist := nl;
      nlist := fl;
      nf := !nn
    done;
    for i = 0 to !nf - 1 do
      front.(!flist.(i)) <- 0
    done;
    (* a ball's charge is what {!search} reports plus one per vertex: the
       kept arcs of every vertex in it, and the vertex *)
    for i = 0 to !nchunk - 1 do
      let v = chunk.(i) in
      let kd = ref 1 in
      for a = off.(v) to off.(v + 1) - 1 do
        if (not masked) || mask.(eid.(a)) then incr kd
      done;
      work := !work + (popcount seen.(v) * !kd);
      seen.(v) <- 0;
      cover sc v
    done;
    base := b0 + cnt
  done;
  !work

let balls ?keep ~budget g sources =
  let n = Graph.n g and ns = Array.length sources in
  let masked, mask =
    match keep with
    | None -> (false, [||])
    | Some k ->
        if Array.length k <> Graph.m g then
          invalid_arg "Dijkstra.balls: mask length mismatch";
        (true, k)
  in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Dijkstra.balls: source out of range")
    sources;
  let sc =
    let sc = Domain.DLS.get ball_key in
    if Array.length sc.seen >= n then sc
    else begin
      let sc = make_ball_scratch n in
      Domain.DLS.set ball_key sc;
      sc
    end
  in
  for i = 0 to sc.ntouched - 1 do
    let v = sc.touched.(i) in
    sc.cov.(v) <- false;
    for r = 0 to sc.rows - 1 do
      sc.bdist.((r * sc.stride) + v) <- infinity
    done
  done;
  sc.ntouched <- 0;
  if Array.length sc.bdist < ns * n then
    sc.bdist <- Array.make (max (ns * n) (2 * Array.length sc.bdist)) infinity;
  sc.rows <- ns;
  sc.stride <- n;
  let edges = Graph.edges g in
  let unit = ref true and e = ref 0 in
  while ns > 0 && !unit && !e < Array.length edges do
    if ((not masked) || mask.(!e)) && edges.(!e).Graph.w <> 1 then
      unit := false;
    incr e
  done;
  let work =
    if !unit then bfs_balls sc ~masked ~mask ~budget g sources
    else begin
      let work = ref 0 in
      for i = 0 to ns - 1 do
        work := !work + search ?keep ~budget g sources.(i);
        let ds = Domain.DLS.get scratch_key in
        for j = 0 to ds.nreached - 1 do
          let v = ds.reached.(j) in
          sc.bdist.((i * n) + v) <- ds.dist.(v);
          cover sc v
        done;
        work := !work + ds.nreached
      done;
      !work
    end
  in
  { dists = sc.bdist; covered = sc.cov; work }
