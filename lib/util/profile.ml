type entry = {
  mutable seconds : float;
  mutable calls : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
}

(* A span is one timed scope instance, kept for the Chrome trace export.
   Offsets are relative to the profile's creation, in seconds.  The list
   is bounded ([span_cap]): profiles time phases, not per-item work, so
   overflow means a mis-used profiler, and we drop silently rather than
   grow without bound. *)
type span = { s_path : string; s_start : float; s_dur : float }

let span_cap = 4096

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order, path-keyed *)
  mutable stack : string list;  (* enclosing scope labels, innermost first *)
  epoch : float;
  mutable spans : span list;  (* reverse chronological *)
  mutable span_count : int;
}

let create () =
  {
    tbl = Hashtbl.create 16;
    order = [];
    stack = [];
    epoch = Unix.gettimeofday ();
    spans = [];
    span_count = 0;
  }

let entry t path =
  match Hashtbl.find_opt t.tbl path with
  | Some e -> e
  | None ->
      let e =
        {
          seconds = 0.0;
          calls = 0;
          minor_words = 0.0;
          major_words = 0.0;
          promoted_words = 0.0;
        }
      in
      Hashtbl.replace t.tbl path e;
      t.order <- path :: t.order;
      e

(* Nested scopes key under "outer/inner" paths; top-level labels are
   unchanged, so pre-existing flat callers see identical ledgers. *)
let path_of t label =
  match t.stack with [] -> label | outer :: _ -> outer ^ "/" ^ label

let add_span t path start dur =
  if t.span_count < span_cap then begin
    t.spans <- { s_path = path; s_start = start; s_dur = dur } :: t.spans;
    t.span_count <- t.span_count + 1
  end

let record t label dt =
  if dt < 0.0 then invalid_arg "Profile.record: negative duration";
  let path = path_of t label in
  let e = entry t path in
  e.seconds <- e.seconds +. dt;
  e.calls <- e.calls + 1;
  add_span t path (Unix.gettimeofday () -. t.epoch -. dt) dt

let time t label f =
  let path = path_of t label in
  let e = entry t path in
  let mi0, pr0, ma0 = Metrics.gc_words () in
  let t0 = Unix.gettimeofday () in
  t.stack <- path :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      (match t.stack with
      | p :: rest when p == path -> t.stack <- rest
      | _ -> () (* unbalanced exit via exception already popped us *));
      let dt = Unix.gettimeofday () -. t0 in
      let mi1, pr1, ma1 = Metrics.gc_words () in
      e.seconds <- e.seconds +. dt;
      e.calls <- e.calls + 1;
      e.minor_words <- e.minor_words +. (mi1 -. mi0);
      e.major_words <- e.major_words +. (ma1 -. ma0);
      e.promoted_words <- e.promoted_words +. (pr1 -. pr0);
      add_span t path (t0 -. t.epoch) dt)
    f

let phases t =
  List.rev_map
    (fun path ->
      let e = Hashtbl.find t.tbl path in
      (path, e.seconds, e.calls))
    t.order

let total t =
  (* Nested scopes are counted once: a child path's time is already inside
     its parent's, so the total sums top-level entries only. *)
  Hashtbl.fold
    (fun path e acc ->
      if String.contains path '/' then acc else acc +. e.seconds)
    t.tbl 0.0

let pp fmt t =
  Format.fprintf fmt "%.3f s total" (total t);
  List.iter
    (fun (path, s, calls) ->
      let depth =
        String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path
      in
      let label =
        match String.rindex_opt path '/' with
        | None -> path
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      in
      Format.fprintf fmt "@.  %s%-*s %9.3f s %6d call%s"
        (String.concat "" (List.init depth (fun _ -> "  ")))
        (max 1 (28 - (2 * depth)))
        label s calls
        (if calls = 1 then "" else "s"))
    (phases t)

(* ---------- metrics export ---------- *)

(* Metric names admit [a-z0-9_.] only; phase labels are free-form
   ("bfs n=512").  Slashes become dots (keeping the hierarchy), everything
   else illegal is flattened to '_'. *)
let sanitize label =
  String.map
    (function
      | ('a' .. 'z' | '0' .. '9' | '_' | '.') as c -> c
      | 'A' .. 'Z' as c -> Char.lowercase_ascii c
      | '/' -> '.'
      | _ -> '_')
    label

let export t reg =
  let module M = Metrics in
  List.iter
    (fun path ->
      let e = Hashtbl.find t.tbl path in
      let tm = M.timer reg ("profile." ^ sanitize path) in
      (* absolute overwrite: re-exporting after more phases is idempotent
         per phase, never double-counts *)
      M.timer_set tm ~seconds:e.seconds ~calls:e.calls
        ~minor_words:e.minor_words ~major_words:e.major_words
        ~promoted_words:e.promoted_words)
    (List.rev t.order)

(* ---------- Chrome trace events ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_events t =
  (* Complete ("X") events on a dedicated tid, microsecond timestamps —
     mergeable into Trace.to_chrome's event array via [?extra_events]. *)
  List.rev_map
    (fun s ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":0,\"tid\":1}"
        (json_escape s.s_path) (s.s_start *. 1e6) (s.s_dur *. 1e6))
    t.spans
