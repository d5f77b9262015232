open! Import

type cert_algo = Thurimella | Kecss

type config = {
  k : int;
  mode : [ `Incremental | `Rebuild ];
  cert : (cert_algo * int) option;
  headroom : int;
  max_affected : float;
  jobs : int;
  recert : [ `Exact | `Local | `Probe ];
}

let defaults ~k =
  if k < 1 then invalid_arg "Repair.defaults: k < 1";
  {
    k;
    mode = `Incremental;
    cert = None;
    headroom = k;
    max_affected = 0.25;
    jobs = 1;
    recert = `Exact;
  }

type outcome = {
  batch : int;
  inserts : int;
  deletes : int;
  action : [ `Repair | `Rebuild ];
  dirty : int;
  candidates : int;
  added : int;
  removed : int;
  work : int;
  rebuild_work : int;
  cert_removed : int;
  cert_debt : int;
  cert_rebuilt : bool;
}

type verdicts = {
  stretch : float;
  stretch_ok : bool;
  spanning : bool;
  cert_ok : bool option;
  cert_violations : int option;
}

module Metrics = Ultraspan_util.Metrics

(* Every repair counter is a function of the update stream and the initial
   graph alone — the engine is sequential and deterministic — so all of
   them live in the deterministic namespace (jobs only parallelize the
   recertification kernels, which have their own [parallel.*] metrics). *)
type meters = {
  rm_batches : Metrics.counter;
  rm_dirty : Metrics.counter;
  rm_candidates : Metrics.counter;
  rm_filtered : Metrics.counter;  (* edges the candidate filter rejected *)
  rm_repairs : Metrics.counter;
  rm_rebuilds : Metrics.counter;
  rm_fallbacks : Metrics.counter;  (* repairs aborted by candidate overflow *)
  rm_work : Metrics.counter;
  rm_added : Metrics.counter;
  rm_removed : Metrics.counter;
  rm_cert_rebuilds : Metrics.counter;
  rm_debt : Metrics.gauge;
}

let meters_of reg =
  {
    rm_batches = Metrics.counter reg "dynamic.repair.batches_total";
    rm_dirty = Metrics.counter reg "dynamic.repair.dirty_balls_total";
    rm_candidates = Metrics.counter reg "dynamic.repair.candidates_total";
    rm_filtered = Metrics.counter reg "dynamic.repair.candidates_filtered";
    rm_repairs = Metrics.counter reg "dynamic.repair.repairs_total";
    rm_rebuilds = Metrics.counter reg "dynamic.repair.rebuilds_total";
    rm_fallbacks = Metrics.counter reg "dynamic.repair.rebuild_fallbacks";
    rm_work = Metrics.counter reg "dynamic.repair.work_total";
    rm_added = Metrics.counter reg "dynamic.repair.edges_added_total";
    rm_removed = Metrics.counter reg "dynamic.repair.edges_removed_total";
    rm_cert_rebuilds = Metrics.counter reg "dynamic.repair.cert_rebuilds_total";
    rm_debt = Metrics.gauge reg "dynamic.repair.recert_debt";
  }

(* The state is the immutable graph plus two masks over its edge ids. *)
type t = {
  cfg : config;
  mutable g : Graph.t;
  mutable keep : bool array;  (* spanner *)
  mutable cert : bool array;  (* certificate; [||] when none is kept *)
  mutable debt : int;  (* certificate edges lost since its last build *)
  mutable batches : int;
  rm : meters;  (* shared with copies *)
}

let validate (cfg : config) =
  if cfg.k < 1 then invalid_arg "Repair.create: k < 1";
  if cfg.headroom < 0 then invalid_arg "Repair.create: negative headroom";
  if cfg.max_affected < 0.0 then
    invalid_arg "Repair.create: negative max_affected";
  if cfg.jobs < 1 then invalid_arg "Repair.create: jobs < 1";
  match cfg.cert with
  | Some (_, ck) when ck < 1 -> invalid_arg "Repair.create: certificate k < 1"
  | _ -> ()

let build_spanner (cfg : config) g = (Bs_derand.run ~k:cfg.k g).Bs_derand.spanner.Spanner.keep

(* KECSS presumes a (ck + headroom)-connected input; a deletion stream can
   sink the graph below that, in which case we degrade to Thurimella's
   k-forest peeling, which certifies min(k, lambda) on any graph. *)
let build_cert (cfg : config) g =
  match cfg.cert with
  | None -> [||]
  | Some (algo, ck) -> (
      let kk = ck + cfg.headroom in
      match algo with
      | Thurimella -> (Thurimella.certificate ~k:kk g).Certificate.keep
      | Kecss -> (
          try (Kecss.approximate ~k:kk g).Kecss.certificate.Certificate.keep
          with Invalid_argument _ ->
            (Thurimella.certificate ~k:kk g).Certificate.keep))

let create ?(metrics = Metrics.disabled) cfg g =
  validate cfg;
  {
    cfg;
    g;
    keep = build_spanner cfg g;
    cert = build_cert cfg g;
    debt = 0;
    batches = 0;
    rm = meters_of metrics;
  }

let count mask =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask

(* ascending indices [i < len] with [p i] *)
let indices len p =
  let ids = ref [] in
  for i = len - 1 downto 0 do
    if p i then ids := i :: !ids
  done;
  !ids

let config t = t.cfg
let graph t = t.g
let spanner t = t.keep
let spanner_size t = count t.keep
let certificate_size t = count t.cert
let cert_debt t = t.debt

let certificate t =
  match t.cfg.cert with
  | None -> None
  | Some (_, ck) ->
      let eids = indices (Array.length t.cert) (Array.get t.cert) in
      Some (Certificate.of_eids t.g ~k:ck eids)

let copy t = { t with keep = Array.copy t.keep; cert = Array.copy t.cert }

let rebuild_work_proxy (cfg : config) g = ((cfg.k + 1) * Graph.m g) + Graph.n g

let apply_batch t batch =
  let cfg = t.cfg and g = t.g in
  (* validates every op first: a bad batch raises before any state moves *)
  let g', map = Update_stream.merge g batch in
  let n = Graph.n g and m' = Graph.m g' in
  let inserts =
    List.length
      (List.filter (function Update_stream.Insert _ -> true | _ -> false) batch)
  in
  let deletes = List.length batch - inserts in
  (* old edges the batch deleted (a re-inserted pair's edge is new), and
     the new edges with no old preimage — the batch's insertions.  [map]
     is increasing on the surviving edges (the merge keeps the canonical
     order), so one walk down both id ranges finds both, in ascending
     order. *)
  let deleted, inserted =
    let del = ref [] and ins = ref [] and e = ref (Graph.m g - 1) in
    let skip_deleted () =
      while !e >= 0 && map.(!e) < 0 do
        del := !e :: !del;
        decr e
      done
    in
    for e' = m' - 1 downto 0 do
      skip_deleted ();
      if !e >= 0 && map.(!e) = e' then decr e else ins := e' :: !ins
    done;
    skip_deleted ();
    (!del, !ins)
  in
  let carry mask =
    let mask' = Array.make m' false in
    Array.iteri
      (fun e e' -> if e' >= 0 && mask.(e) then mask'.(e') <- true)
      map;
    mask'
  in
  let removed_ids = Array.of_list (List.filter (fun e -> t.keep.(e)) deleted) in
  let removed = Array.length removed_ids in
  let rebuild_work = rebuild_work_proxy cfg g' in
  let k2 = (2 * cfg.k) - 1 in
  let work = ref 0 in
  (* ---------- spanner maintenance ---------- *)
  let do_rebuild () = (build_spanner cfg g', rebuild_work, 0, 0, 0) in
  let do_repair () =
    let span' = carry t.keep in
    (* the dirty vertices are the removed spanner edges' endpoints, each
       once; all their balls are one truncated search in the *old*
       spanner: any edge whose bound-length witness crossed a deleted
       spanner edge has both endpoints inside these balls (see
       repair.mli) *)
    let sources =
      Array.fold_left
        (fun acc e ->
          let a, b = Graph.endpoints g e in
          a :: b :: acc)
        [] removed_ids
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let n_dirty = Array.length sources in
    (* offset of dirty vertex [x]'s distance row: its index in [sources] *)
    let row x =
      let lo = ref 0 and hi = ref (n_dirty - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if sources.(mid) < x then lo := mid + 1 else hi := mid
      done;
      !lo * n
    in
    let maxw =
      Array.fold_left (fun acc e -> max acc e.Graph.w) 1 (Graph.edges g')
    in
    let { Dijkstra.dists; covered; work = ball_work } =
      Dijkstra.balls ~keep:t.keep ~budget:(k2 * maxw) g sources
    in
    work := !work + ball_work;
    let ra = Array.map (fun e -> row (fst (Graph.endpoints g e))) removed_ids
    and rb = Array.map (fun e -> row (snd (Graph.endpoints g e))) removed_ids in
    let rw = Array.map (Graph.weight g) removed_ids in
    (* candidate filter: an edge of g' is suspect if some deleted spanner
       edge closes a bound-length detour between its endpoints.  Every
       distance outside the dirty balls is infinite, so the |D|-way detour
       checks only run on edges with BOTH endpoints inside some ball — one
       cheap membership pass over the edge list plus O(|D| * ball) checks
       near the damage, instead of m' * |D| everywhere. *)
    let suspects = ref [] in
    if removed > 0 then begin
      work := !work + m';
      (* the surviving old edges: an inserted edge is a candidate anyway *)
      Array.iteri
        (fun e { Graph.u = x; v = y; w; _ } ->
          let id = map.(e) in
          if id >= 0 && covered.(x) && covered.(y) && not t.keep.(e) then begin
            let bound = k2 * w in
            let hit = ref false and i = ref 0 in
            while (not !hit) && !i < removed do
              incr work;
              let da = ra.(!i) and db = rb.(!i) and w_ab = rw.(!i) in
              let dax = dists.(da + x) and day = dists.(da + y)
              and dbx = dists.(db + x) and dby = dists.(db + y) in
              hit :=
                (dax < Dijkstra.infinity && dby < Dijkstra.infinity
                && dax + w_ab + dby <= bound)
                || (dbx < Dijkstra.infinity && day < Dijkstra.infinity
                   && dbx + w_ab + day <= bound);
              incr i
            done;
            if !hit then suspects := id :: !suspects
          end)
        (Graph.edges g);
      Metrics.add t.rm.rm_filtered (m' - List.length !suspects)
    end;
    let candidates = Array.of_list (List.rev_append !suspects inserted) in
    let n_cand = Array.length candidates in
    if float_of_int n_cand > cfg.max_affected *. float_of_int (max 1 m') then begin
      let keep', w, _, _, _ = do_rebuild () in
      (keep', !work + w, n_dirty, n_cand, -1)
    end
    else begin
      (* greedy re-check against the *current* spanner, lightest first *)
      let added, scanned = Greedy.pass ~k:cfg.k g' span' candidates in
      (span', !work + scanned, n_dirty, n_cand, added)
    end
  in
  let force_rebuild =
    cfg.mode = `Rebuild
    || float_of_int removed
       > cfg.max_affected *. float_of_int (max 1 (count t.keep))
  in
  let keep', total_work, n_dirty, n_cand, added =
    if force_rebuild then do_rebuild () else do_repair ()
  in
  let action = if added < 0 || force_rebuild then `Rebuild else `Repair in
  let overflowed = added < 0 && not force_rebuild in
  let added = max added 0 in
  (* ---------- lazy recertification ---------- *)
  (* a certificate edge whose pair the batch re-inserted costs no debt:
     the insertion puts it back *)
  let cert_removed, lost =
    match cfg.cert with
    | None -> (0, 0)
    | Some _ ->
        List.fold_left
          (fun (r, l) e ->
            if not t.cert.(e) then (r, l)
            else
              let a, b = Graph.endpoints g e in
              (r + 1, if Graph.mem_edge g' a b then l else l + 1))
          (0, 0) deleted
  in
  let debt' = t.debt + lost in
  let cert', debt', cert_rebuilt =
    match cfg.cert with
    | None -> (t.cert, debt', false)
    | Some _ when debt' > cfg.headroom -> (build_cert cfg g', 0, true)
    | Some _ ->
        let c = carry t.cert in
        List.iter (fun e -> c.(e) <- true) inserted;
        (c, debt', false)
  in
  (* ---------- commit ---------- *)
  t.g <- g';
  t.keep <- keep';
  t.cert <- cert';
  t.debt <- debt';
  t.batches <- t.batches + 1;
  let rm = t.rm in
  Metrics.incr rm.rm_batches;
  Metrics.add rm.rm_dirty n_dirty;
  Metrics.add rm.rm_candidates n_cand;
  (match action with
  | `Repair -> Metrics.incr rm.rm_repairs
  | `Rebuild -> Metrics.incr rm.rm_rebuilds);
  if overflowed then Metrics.incr rm.rm_fallbacks;
  Metrics.add rm.rm_work total_work;
  Metrics.add rm.rm_added added;
  Metrics.add rm.rm_removed removed;
  if cert_rebuilt then Metrics.incr rm.rm_cert_rebuilds;
  Metrics.set rm.rm_debt debt';
  {
    batch = t.batches;
    inserts;
    deletes;
    action;
    dirty = n_dirty;
    candidates = n_cand;
    added;
    removed;
    work = total_work;
    rebuild_work;
    cert_removed;
    cert_debt = debt';
    cert_rebuilt;
  }

let apply_stream t stream =
  List.map (apply_batch t) stream.Update_stream.batches

(* Local recertification: witness + O(k)-round CONGEST checkers instead of
   the O(nm) ground truth.  An accepting run certifies the stretch bound
   (2k-1) without measuring the exact stretch, so [stretch] reports the
   certified bound on accept and [infinity] on reject. *)
let recertify_local t =
  let alpha = float_of_int ((2 * t.cfg.k) - 1) in
  let sp = { Spanner.keep = t.keep; rounds = Rounds.create () } in
  let v = Verify.spanner ~jobs:t.cfg.jobs ~mode:Verify.Local ~k:t.cfg.k t.g sp in
  let sp_ok = v.Verify.ok in
  let cert_ok =
    match certificate t with
    | None -> None
    | Some c ->
        Some (Verify.certificate ~jobs:t.cfg.jobs ~mode:Verify.Local t.g c)
          .Verify.ok
  in
  {
    stretch = (if sp_ok then alpha else infinity);
    stretch_ok = sp_ok;
    spanning = sp_ok;
    cert_ok;
    cert_violations = None;
  }

(* Probe recertification: sublinear eps-far connectivity spot-checks only.
   Stretch is out of a probe's reach, so the stretch fields are vacuous
   ([stretch = 0.], [stretch_ok = true]); an accept certifies nothing more
   than "not eps-far from connected". *)
let recertify_probe t =
  let seed = t.batches + 1 in
  let probe keep =
    (Eps_far.connectivity ~keep ~seed ~epsilon:0.1 t.g).Eps_far.accepted
  in
  let spanning = probe t.keep in
  let cert_ok =
    match certificate t with
    | None -> None
    | Some c -> Some (probe c.Certificate.keep)
  in
  {
    stretch = 0.;
    stretch_ok = true;
    spanning;
    cert_ok;
    cert_violations = None;
  }

let recertify ?rng ?(budget = 200) t =
  match t.cfg.recert with
  | `Local -> recertify_local t
  | `Probe -> recertify_probe t
  | `Exact -> (
      let jobs = t.cfg.jobs in
      let alpha = float_of_int ((2 * t.cfg.k) - 1) in
      let stretch = Stretch.max_edge_stretch ~jobs t.g t.keep in
      let stretch_ok = Stretch.check_stretch ~jobs t.g t.keep alpha in
      let spanning = Connectivity.spans t.g t.keep in
      match certificate t with
      | None ->
          {
            stretch;
            stretch_ok;
            spanning;
            cert_ok = None;
            cert_violations = None;
          }
      | Some c ->
          let cert_ok = Certificate.is_certificate t.g c in
          let r = Resilience.check_certificate ?rng ~budget t.g c in
          {
            stretch;
            stretch_ok;
            spanning;
            cert_ok = Some cert_ok;
            cert_violations = Some r.Resilience.violations;
          })

let pp_outcome ppf o =
  Format.fprintf ppf
    "batch %d: +%d/-%d %s dirty=%d cand=%d added=%d removed=%d work=%d \
     (rebuild %d) cert(-%d debt=%d%s)"
    o.batch o.inserts o.deletes
    (match o.action with `Repair -> "repair" | `Rebuild -> "rebuild")
    o.dirty o.candidates o.added o.removed o.work o.rebuild_work o.cert_removed
    o.cert_debt
    (if o.cert_rebuilt then " rebuilt" else "")

let pp_verdicts ppf v =
  Format.fprintf ppf "stretch %.3f (%s) spanning=%b%s" v.stretch
    (if v.stretch_ok then "ok" else "VIOLATED")
    v.spanning
    (match (v.cert_ok, v.cert_violations) with
    | Some ok, Some viol ->
        Format.asprintf " cert(%s, %d violations)"
          (if ok then "ok" else "BROKEN")
          viol
    | Some ok, None ->
        (* local / probe recertification: no failure-set sampling *)
        Format.asprintf " cert(%s)" (if ok then "ok" else "BROKEN")
    | _ -> "")
