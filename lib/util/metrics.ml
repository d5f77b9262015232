(* Typed metrics registry — the unified observability plane.

   Design mirrors Trace: instrumentation sites take the registry as an
   optional argument and resolve HANDLES once, outside the hot loop.  A
   handle from a disabled registry is a shared dead record whose update
   functions test one immediate bool and return — no allocation, no
   hashing, no branch misprediction worth measuring (test_metrics checks
   the zero-allocation claim with a [Gc.minor_words] delta).

   Determinism contract (see DESIGN.md §1.9): every metric outside the
   [timing.*] namespace must be a pure function of the algorithm's work —
   byte-identical snapshots for any [--jobs] and any simulator engine.
   [timing.*] is the execution namespace: wall-clock timers (auto-prefixed
   here) and engine-/schedule-internal diagnostics (registered under
   [timing.] explicitly, e.g. [timing.congest.fast.arena_slots_touched]),
   excluded from the determinism gates in check.sh/CI. *)

type counter = { mutable cv : int; c_live : bool }
type gauge = { mutable gv : int; g_live : bool }

type histogram = {
  edges : int array; (* strictly increasing upper bounds, `le` semantics *)
  counts : int array; (* length = |edges| + 1; last bucket = overflow *)
  mutable h_sum : int;
  mutable h_total : int;
  h_live : bool;
}

type timer = {
  mutable seconds : float;
  mutable calls : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  t_live : bool;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Timer of timer

type t = {
  live : bool;
  tbl : (string, metric) Hashtbl.t;
  lock : Mutex.t; (* registration and snapshot; updates are caller-domain *)
  mutable partial : bool;
}

let create () =
  { live = true; tbl = Hashtbl.create 64; lock = Mutex.create (); partial = false }

let disabled =
  { live = false; tbl = Hashtbl.create 1; lock = Mutex.create (); partial = false }

let live t = t.live

(* Shared dead handles: registration against a disabled registry costs
   nothing and updates through the result are single-bool no-ops. *)
let dead_counter = { cv = 0; c_live = false }
let dead_gauge = { gv = 0; g_live = false }

let dead_histogram =
  { edges = [||]; counts = [| 0 |]; h_sum = 0; h_total = 0; h_live = false }

let dead_timer =
  {
    seconds = 0.0;
    calls = 0;
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    t_live = false;
  }

let timing_prefix = "timing."

let in_timing_namespace name =
  String.length name >= 7 && String.sub name 0 7 = timing_prefix

let check_name name =
  let ok_char = function
    | 'a' .. 'z' | '0' .. '9' | '_' | '.' -> true
    | _ -> false
  in
  if name = "" then invalid_arg "Metrics: empty metric name";
  if not (String.for_all ok_char name) then
    invalid_arg
      (Printf.sprintf
         "Metrics: bad name %S (dot-separated [a-z0-9_] segments only)" name);
  if
    name.[0] = '.'
    || name.[String.length name - 1] = '.'
    || List.exists (( = ) "") (String.split_on_char '.' name)
  then
    invalid_arg (Printf.sprintf "Metrics: bad name %S (empty segment)" name)

let register t name make describe =
  check_name name;
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace t.tbl name m;
          m)
  |> fun m ->
  match describe m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered with another type" name)

let counter t name =
  if not t.live then (
    check_name name;
    dead_counter)
  else
    register t name
      (fun () -> Counter { cv = 0; c_live = true })
      (function Counter c -> Some c | _ -> None)

let gauge t name =
  if not t.live then (
    check_name name;
    dead_gauge)
  else
    register t name
      (fun () -> Gauge { gv = 0; g_live = true })
      (function Gauge g -> Some g | _ -> None)

(* Default bucket ladder: powers of two up to 64k — wide enough for
   per-round message counts at n = 10^5 while keeping snapshots small. *)
let default_buckets =
  [| 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536 |]

let histogram ?(buckets = default_buckets) t name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket edges";
  Array.iteri
    (fun i e ->
      if i > 0 && e <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket edges must be strictly increasing")
    buckets;
  if not t.live then (
    check_name name;
    dead_histogram)
  else
    register t name
      (fun () ->
        Histogram
          {
            edges = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0;
            h_total = 0;
            h_live = true;
          })
      (function Histogram h -> Some h | _ -> None)

let timer t name =
  let name = if in_timing_namespace name then name else timing_prefix ^ name in
  if not t.live then (
    check_name name;
    dead_timer)
  else
    register t name
      (fun () ->
        Timer
          {
            seconds = 0.0;
            calls = 0;
            minor_words = 0.0;
            major_words = 0.0;
            promoted_words = 0.0;
            t_live = true;
          })
      (function Timer tm -> Some tm | _ -> None)

(* ---------- hot-path updates (no allocation) ---------- *)

let incr c = if c.c_live then c.cv <- c.cv + 1
let add c n = if c.c_live then c.cv <- c.cv + n
let set g v = if g.g_live then g.gv <- v
let set_max g v = if g.g_live && v > g.gv then g.gv <- v

let observe h v =
  if h.h_live then begin
    (* first bucket whose edge >= v, by binary search over the edges *)
    let lo = ref 0 and hi = ref (Array.length h.edges) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= Array.unsafe_get h.edges mid then hi := mid else lo := mid + 1
    done;
    let b = !lo in
    h.counts.(b) <- h.counts.(b) + 1;
    h.h_sum <- h.h_sum + v;
    h.h_total <- h.h_total + 1
  end

let timer_add tm dt =
  if tm.t_live then begin
    if dt < 0.0 then invalid_arg "Metrics.timer_add: negative duration";
    tm.seconds <- tm.seconds +. dt;
    tm.calls <- tm.calls + 1
  end

let timer_set tm ~seconds ~calls ~minor_words ~major_words ~promoted_words =
  if tm.t_live then begin
    tm.seconds <- seconds;
    tm.calls <- calls;
    tm.minor_words <- minor_words;
    tm.major_words <- major_words;
    tm.promoted_words <- promoted_words
  end

(* [Gc.quick_stat] will not do here: on OCaml 5.1 its minor count moves
   only at a minor collection, so a span that allocates without one reads
   zero. *)
let gc_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), promoted, major)

let time tm f =
  if not tm.t_live then f ()
  else begin
    let mi0, pr0, ma0 = gc_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        let mi1, pr1, ma1 = gc_words () in
        tm.seconds <- tm.seconds +. dt;
        tm.calls <- tm.calls + 1;
        tm.minor_words <- tm.minor_words +. (mi1 -. mi0);
        tm.major_words <- tm.major_words +. (ma1 -. ma0);
        tm.promoted_words <- tm.promoted_words +. (pr1 -. pr0))
      f
  end

let value c = c.cv
let gauge_value g = g.gv
let mark_partial t = if t.live then t.partial <- true

(* ---------- snapshots ---------- *)

type hist_data = { hedges : int array; hcounts : int array; hsum : int; htotal : int }

type timer_data = {
  tseconds : float;
  tcalls : int;
  tminor_words : float;
  tmajor_words : float;
  tpromoted_words : float;
}

type snapshot = {
  partial : bool;
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_data) list;
  timers : (string * timer_data) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot t =
  Mutex.protect t.lock (fun () ->
      let counters = ref []
      and gauges = ref []
      and histograms = ref []
      and timers = ref [] in
      Hashtbl.iter
        (fun name m ->
          match m with
          | Counter c -> counters := (name, c.cv) :: !counters
          | Gauge g -> gauges := (name, g.gv) :: !gauges
          | Histogram h ->
              histograms :=
                ( name,
                  {
                    hedges = Array.copy h.edges;
                    hcounts = Array.copy h.counts;
                    hsum = h.h_sum;
                    htotal = h.h_total;
                  } )
                :: !histograms
          | Timer tm ->
              timers :=
                ( name,
                  {
                    tseconds = tm.seconds;
                    tcalls = tm.calls;
                    tminor_words = tm.minor_words;
                    tmajor_words = tm.major_words;
                    tpromoted_words = tm.promoted_words;
                  } )
                :: !timers)
        t.tbl;
      {
        partial = t.partial;
        counters = List.sort by_name !counters;
        gauges = List.sort by_name !gauges;
        histograms = List.sort by_name !histograms;
        timers = List.sort by_name !timers;
      })

let strip_timing s =
  let keep (name, _) = not (in_timing_namespace name) in
  {
    s with
    counters = List.filter keep s.counters;
    gauges = List.filter keep s.gauges;
    histograms = List.filter keep s.histograms;
    timers = [] (* timers always live under timing.* *);
  }

let find_counter s name = List.assoc_opt name s.counters
let find_gauge s name = List.assoc_opt name s.gauges
let find_timer s name = List.assoc_opt name s.timers

(* ---------- Prometheus-style text exposition ---------- *)

(* Deterministic: one line per sample, names in sorted order, floats in
   shortest round-tripping form.  Dots are kept in the names (this is an
   exposition in the Prometheus *shape* — TYPE comments, `le` bucket
   labels, _sum/_count — not a scrape target). *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let exposition ?(strip = false) s =
  let s = if strip then strip_timing s else s in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  if s.partial then line "# partial 1";
  List.iter
    (fun (name, v) ->
      line "# TYPE %s counter" name;
      line "%s %d" name v)
    s.counters;
  List.iter
    (fun (name, v) ->
      line "# TYPE %s gauge" name;
      line "%s %d" name v)
    s.gauges;
  List.iter
    (fun (name, h) ->
      line "# TYPE %s histogram" name;
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          line "%s_bucket{le=\"%d\"} %d" name h.hedges.(i) !cum)
        (Array.sub h.hcounts 0 (Array.length h.hedges));
      cum := !cum + h.hcounts.(Array.length h.hcounts - 1);
      line "%s_bucket{le=\"+Inf\"} %d" name !cum;
      line "%s_sum %d" name h.hsum;
      line "%s_count %d" name h.htotal)
    s.histograms;
  List.iter
    (fun (name, tm) ->
      line "# TYPE %s timer" name;
      line "%s_seconds %s" name (float_str tm.tseconds);
      line "%s_calls %d" name tm.tcalls;
      line "%s_minor_words %s" name (float_str tm.tminor_words);
      line "%s_major_words %s" name (float_str tm.tmajor_words);
      line "%s_promoted_words %s" name (float_str tm.tpromoted_words))
    s.timers;
  Buffer.contents buf

(* ---------- human report ---------- *)

let spark_levels = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline counts =
  let m = Array.fold_left max 0 counts in
  if m = 0 then String.concat "" (List.init (Array.length counts) (fun _ -> " "))
  else
    String.concat ""
      (Array.to_list
         (Array.map
            (fun c ->
              if c = 0 then spark_levels.(0)
              else spark_levels.(1 + (c * 7 / m)))
            counts))

let pp_report ?(top = 10) fmt s =
  if s.partial then
    Format.fprintf fmt "PARTIAL snapshot (the run was interrupted)@.";
  let det, exec = List.partition (fun (n, _) -> not (in_timing_namespace n)) s.counters in
  let top_of lst =
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) lst in
    List.filteri (fun i _ -> i < top) sorted
  in
  if det <> [] then begin
    Format.fprintf fmt "top counters (deterministic):@.";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-44s %12d@." n v) (top_of det)
  end;
  if exec <> [] then begin
    Format.fprintf fmt "top counters (execution namespace):@.";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-44s %12d@." n v) (top_of exec)
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "gauges:@.";
    List.iter (fun (n, v) -> Format.fprintf fmt "  %-44s %12d@." n v) s.gauges
  end;
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "histogram %s (count %d, sum %d):@." name h.htotal h.hsum;
      Format.fprintf fmt "  |%s| le %s,+Inf@." (sparkline h.hcounts)
        (String.concat ","
           (Array.to_list (Array.map string_of_int h.hedges))))
    s.histograms;
  if s.timers <> [] then begin
    Format.fprintf fmt
      "timers (wall-clock + GC word deltas; excluded from determinism \
       gates):@.";
    Format.fprintf fmt "  %-44s %10s %7s %12s %12s@." "phase" "seconds" "calls"
      "minor Mw" "major Mw";
    List.iter
      (fun (n, tm) ->
        Format.fprintf fmt "  %-44s %10.4f %7d %12.3f %12.3f@." n tm.tseconds
          tm.tcalls
          (tm.tminor_words /. 1e6)
          (tm.tmajor_words /. 1e6))
      s.timers
  end
