open! Import

type spanner_witness = { k : int; detour : int array array; missing : int }

(* Hop-bounded, budget-pruned shortest paths inside the spanner subgraph,
   one layered search per source [u] that has non-spanner edges to
   higher neighbours (its targets).  Layer [h] relaxes the kept arcs of
   the layer-[h-1] frontier and writes only layer [h]: [par.(h*n + v)]
   is the predecessor of [v]'s layer-[h] entry.  A relaxation needs a
   strict improvement on [best.(v)], the least weight over layers
   [0..h], so the last layer set is the unique arg-min (fewest hops on
   ties) and [besth.(v)] records it; backtracking [par] from there walks
   a path with exactly that many hops.  Frontiers are int arrays with a
   snapshot of their layer distances, walked in reverse insertion order.

   Early stop: every later candidate weighs at least [lo], the least
   distance on the next frontier (weights are non-negative), so once
   [best.(v) <= lo] for every target no target is set again.  Completed
   layers' [par] entries are never rewritten, so each target's path and
   the [missing] count equal those of the full [2k-1] layers. *)
let spanner g ~k sp =
  if k < 1 then invalid_arg "Witness.spanner: k >= 1";
  let n = Graph.n g and m = Graph.m g in
  let keep = sp.Spanner.keep in
  if Array.length keep <> m then
    invalid_arg "Witness.spanner: keep length mismatch";
  let { Graph.off; dst; eid; _ } = Graph.csr g in
  let hmax = (2 * k) - 1 in
  let inf = max_int in
  let best = Array.make n inf and besth = Array.make n 0 in
  let par = Array.make ((hmax + 1) * n) (-1) in
  let touched = Array.make n 0 and ntouched = ref 0 in
  let fv = ref (Array.make n 0) and nv = ref (Array.make n 0) in
  let fd = Array.make n 0 in
  let set h v d p =
    if best.(v) = inf then begin
      touched.(!ntouched) <- v;
      incr ntouched
    end;
    best.(v) <- d;
    besth.(v) <- h;
    par.((h * n) + v) <- p
  in
  (* every target [v] of [u] has [best.(v) <= lo] *)
  let settled u lo =
    let ok = ref true and a = ref off.(u) in
    while !ok && !a < off.(u + 1) do
      let v = dst.(!a) in
      if u < v && (not keep.(eid.(!a))) && best.(v) > lo then ok := false;
      incr a
    done;
    !ok
  in
  let detour = Array.make m [||] in
  let missing = ref 0 in
  for u = 0 to n - 1 do
    let budget = ref (-1) in
    for a = off.(u) to off.(u + 1) - 1 do
      let e = eid.(a) in
      if u < dst.(a) && not keep.(e) then
        budget := max !budget (hmax * Graph.weight g e)
    done;
    let budget = !budget in
    if budget >= 0 then begin
      set 0 u 0 (-1);
      !fv.(0) <- u;
      fd.(0) <- 0;
      let fn = ref 1 and h = ref 1 in
      while !h <= hmax do
        let fv' = !fv and nv' = !nv in
        let nn = ref 0 in
        for i = !fn - 1 downto 0 do
          let v = fv'.(i) and dv = fd.(i) in
          for a = off.(v) to off.(v + 1) - 1 do
            let e = eid.(a) in
            if keep.(e) then begin
              let x = dst.(a) and d = dv + Graph.weight g e in
              if d <= budget && d < best.(x) then begin
                if best.(x) = inf || besth.(x) <> !h then begin
                  nv'.(!nn) <- x;
                  incr nn
                end;
                set !h x d v
              end
            end
          done
        done;
        (* the layer is done: [fd] now snapshots the next frontier *)
        let lo = ref inf in
        for i = 0 to !nn - 1 do
          let d = best.(nv'.(i)) in
          fd.(i) <- d;
          if d < !lo then lo := d
        done;
        fv := nv';
        nv := fv';
        fn := !nn;
        h := if settled u !lo then hmax + 1 else !h + 1
      done;
      for a = off.(u) to off.(u + 1) - 1 do
        let v = dst.(a) and e = eid.(a) in
        if u < v && not keep.(e) then begin
          if best.(v) <= hmax * Graph.weight g e then begin
            let hv = besth.(v) in
            let path = Array.make (hv + 1) 0 in
            let cur = ref v in
            for hh = hv downto 0 do
              path.(hh) <- !cur;
              cur := par.((hh * n) + !cur)
            done;
            detour.(e) <- path
          end
          else incr missing
        end
      done;
      for i = 0 to !ntouched - 1 do
        best.(touched.(i)) <- inf
      done;
      ntouched := 0
    end
  done;
  { k; detour; missing = !missing }

type certificate_witness = {
  ck : int;
  forest : int array;
  parent : int array array;
  depth : int array array;
  root : int array array;
}

(* BFS labels for one forest: explore only edges accepted by [use]
   (already-claimed edges are skipped via [claimed]), rooting every
   component at its minimum vertex via the ascending start scan. *)
let peel_stage g ~use ~claim i w =
  let q = Queue.create () in
  let seen = Array.make (Graph.n g) false in
  for s = 0 to Graph.n g - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      w.root.(i).(s) <- s;
      w.depth.(i).(s) <- 0;
      w.parent.(i).(s) <- -1;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        Graph.iter_adj g v (fun u eid ->
            if use eid && not seen.(u) then begin
              seen.(u) <- true;
              claim eid;
              w.forest.(eid) <- i + 1;
              w.parent.(i).(u) <- v;
              w.depth.(i).(u) <- w.depth.(i).(v) + 1;
              w.root.(i).(u) <- w.root.(i).(v);
              Queue.add u q
            end)
      done
    end
  done

let fresh_witness g k =
  let n = Graph.n g in
  {
    ck = k;
    forest = Array.make (Graph.m g) 0;
    parent = Array.init k (fun _ -> Array.make n (-1));
    depth = Array.init k (fun _ -> Array.make n 0);
    root = Array.init k (fun _ -> Array.make n (-1));
  }

let matches_keep keep w =
  let ok = ref true in
  Array.iteri (fun e kp -> if kp <> (w.forest.(e) >= 1) then ok := false) keep;
  !ok

(* Strategy 1: replay the Thurimella BFS peeling of the whole graph. *)
let thurimella_labels g k =
  let w = fresh_witness g k in
  let removed = Array.make (Graph.m g) false in
  for i = 0 to k - 1 do
    peel_stage g
      ~use:(fun eid -> not removed.(eid))
      ~claim:(fun eid -> removed.(eid) <- true)
      i w
  done;
  w

(* Strategy 2: the Nagamochi–Ibaraki forest partition.  Its first k
   forests satisfy the same peeling property (F_i is a maximal spanning
   forest of G minus the earlier forests); per-forest BFS labels are
   rebuilt here because the scan itself does not produce rooted trees. *)
let ni_labels g k =
  let label = Nagamochi_ibaraki.forests g in
  let w = fresh_witness g k in
  for i = 0 to k - 1 do
    peel_stage g
      ~use:(fun eid -> label.(eid) = i + 1)
      ~claim:(fun _ -> ())
      i w
  done;
  w

let certificate g cert =
  let k = cert.Certificate.k in
  let keep = cert.Certificate.keep in
  let w = thurimella_labels g k in
  if matches_keep keep w then Ok w
  else
    let w = ni_labels g k in
    if matches_keep keep w then Ok w
    else
      Error
        "certificate is not a maximal-spanning-forest peeling of the graph \
         (Thurimella/Nagamochi-Ibaraki); no forest labels exist - use exact \
         verification"
