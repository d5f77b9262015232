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
