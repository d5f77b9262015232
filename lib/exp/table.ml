(* Typed experiment tables: the artifact layer behind bench/main.ml.

   Every bench experiment builds a [Table.t] — sections of typed rows plus
   declared bound predicates (the paper's guarantees as executable checks)
   — and the generic machinery here renders it as text (same shape as the
   historical printf output), emits it as a deterministic JSON artifact,
   re-parses artifacts, and diffs a fresh run against committed goldens
   (exact for counts/stretch, tolerance-banded for wall-clock). *)

let schema = "ultraspan-table/1"

type value =
  | Int of int
  | Float of float  (* deterministic measurement: exact in diffs *)
  | Time of float  (* wall-clock seconds-ish: tolerance-banded in diffs *)
  | Str of string
  | Bool of bool

type bound = {
  bid : string;
  descr : string;
  observed : float;
  limit : float;
  holds : bool;
}

type row = { fields : (string * value) list; bounds : bound list }

type col = {
  key : string;
  title : string;
  width : int;
  align : [ `L | `R ];
  render : (value -> string) option;
}

type section = {
  sid : string;
  caption : string list;
  cols : col list;
  rows : row list;
  elide : int option;
  indent : int;
  rule : bool;
}

type t = {
  id : string;
  title : string;
  params : (string * value) list;
  sections : section list;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* constructors                                                        *)
(* ------------------------------------------------------------------ *)

let eps = 1e-9

let bound ~id ?(descr = "") ~observed ~limit holds =
  { bid = id; descr; observed; limit; holds }

let le ~id ?descr observed limit =
  bound ~id ?descr ~observed ~limit (observed <= limit +. eps)

let ge ~id ?descr observed limit =
  bound ~id ?descr ~observed ~limit (observed >= limit -. eps)

let flag ~id ?descr ok =
  bound ~id ?descr ~observed:(if ok then 1.0 else 0.0) ~limit:1.0 ok

let row ?(bounds = []) fields = { fields; bounds }

let col ?(align = `R) ?render ?title ~w key =
  { key; title = Option.value title ~default:key; width = w; align; render }

let section ?(caption = []) ?elide ?(indent = 0) ?(rule = true) ~cols sid rows
    =
  { sid; caption; cols; rows; elide; indent; rule }

let make ~id ~title ?(params = []) ?(notes = []) sections =
  { id; title; params; sections; notes }

(* ------------------------------------------------------------------ *)
(* value rendering                                                     *)
(* ------------------------------------------------------------------ *)

let pretty_float x =
  if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else if Float.is_nan x then "nan"
  else if x >= 1000.0 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

let default_render = function
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.2f" f else pretty_float f
  | Time s -> Printf.sprintf "%.2f" s
  | Str s -> s
  | Bool b -> if b then "yes" else "no"

let pretty = function Float f | Time f -> pretty_float f | v -> default_render v

let to_float = function
  | Int i -> float_of_int i
  | Float f | Time f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Str _ -> Float.nan

(* ------------------------------------------------------------------ *)
(* bound checking                                                      *)
(* ------------------------------------------------------------------ *)

let row_label r =
  match r.fields with
  | (_, Str s) :: _ -> s
  | (k, v) :: _ -> Printf.sprintf "%s=%s" k (default_render v)
  | [] -> "(empty row)"

(* (section id, row label, bound) for every violated bound *)
let violations t =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun r ->
          List.filter_map
            (fun b -> if b.holds then None else Some (s.sid, row_label r, b))
            r.bounds)
        s.rows)
    t.sections

let bounds_checked t =
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc r -> acc + List.length r.bounds) acc s.rows)
    0 t.sections

let ok t = violations t = []

(* ------------------------------------------------------------------ *)
(* text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let hr_width = 100

let render_cell c v =
  let s = match c.render with Some f -> f v | None -> default_render v in
  match c.align with
  | `R -> Printf.sprintf "%*s" c.width s
  | `L -> Printf.sprintf "%-*s" c.width s

let strip_right s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

let render_row ~indent cols r =
  let cells =
    List.map
      (fun c ->
        match List.assoc_opt c.key r.fields with
        | Some v -> render_cell c v
        | None -> render_cell c (Str "-"))
      cols
  in
  let line = String.make indent ' ' ^ String.concat " " cells in
  let marks =
    List.filter_map
      (fun b -> if b.holds then None else Some (String.uppercase_ascii b.bid))
      r.bounds
  in
  strip_right line
  ^ (if marks = [] then "" else "  VIOLATION:" ^ String.concat "," marks)

let render_header ~indent cols =
  strip_right
    (String.make indent ' '
    ^ String.concat " "
        (List.map
           (fun c ->
             match c.align with
             | `R -> Printf.sprintf "%*s" c.width c.title
             | `L -> Printf.sprintf "%-*s" c.width c.title)
           cols))

let render buf t =
  let out line = Buffer.add_string buf (line ^ "\n") in
  let bar = String.make hr_width '=' in
  let hr = String.make hr_width '-' in
  out "";
  out bar;
  out t.title;
  out bar;
  let last_cols = ref [] in
  List.iter
    (fun s ->
      List.iter out s.caption;
      if s.rows <> [] || s.cols <> [] then begin
        (* Sections sharing the same physical [cols] list print one header;
           all-blank titles suppress the header without resetting it. *)
        if
          s.cols <> []
          && (not (s.cols == !last_cols))
          && List.exists (fun (c : col) -> c.title <> "") s.cols
        then begin
          out (render_header ~indent:s.indent s.cols);
          out hr;
          last_cols := s.cols
        end;
        let rows = Array.of_list s.rows in
        let n = Array.length rows in
        let show i = out (render_row ~indent:s.indent s.cols rows.(i)) in
        (match s.elide with
        | Some e when n > e + 4 ->
            for i = 0 to e - 1 do
              show i
            done;
            out
              (Printf.sprintf "%s%s    (%d rows elided)"
                 (String.make s.indent ' ')
                 "   ..." (n - e - 3));
            for i = n - 3 to n - 1 do
              show i
            done
        | _ ->
            for i = 0 to n - 1 do
              show i
            done);
        if s.rule then out hr
      end)
    t.sections;
  List.iter out t.notes

let to_text t =
  let b = Buffer.create 4096 in
  render b t;
  Buffer.contents b

let print t = print_string (to_text t)

(* ------------------------------------------------------------------ *)
(* JSON artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let json_of_float f =
  if Float.is_finite f then Json.Float f
  else
    Json.Obj
      [
        ( "float",
          Json.Str
            (if f = Float.infinity then "inf"
             else if f = Float.neg_infinity then "-inf"
             else "nan") );
      ]

let float_of_json = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | Json.Obj [ ("float", Json.Str "inf") ] -> Float.infinity
  | Json.Obj [ ("float", Json.Str "-inf") ] -> Float.neg_infinity
  | Json.Obj [ ("float", Json.Str "nan") ] -> Float.nan
  | _ -> raise (Json.Error "expected float")

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> json_of_float f
  | Time s -> Json.Obj [ ("time", Json.Float s) ]
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let value_of_json = function
  | Json.Int i -> Int i
  | Json.Float f -> Float f
  | Json.Str s -> Str s
  | Json.Bool b -> Bool b
  | Json.Obj [ ("time", tv) ] -> Time (Json.num tv)
  | Json.Obj [ ("float", _) ] as j -> Float (float_of_json j)
  | _ -> raise (Json.Error "bad value encoding")

let json_of_bound b =
  Json.Obj
    [
      ("id", Json.Str b.bid);
      ("descr", Json.Str b.descr);
      ("observed", json_of_float b.observed);
      ("limit", json_of_float b.limit);
      ("holds", Json.Bool b.holds);
    ]

let bound_of_json j =
  {
    bid = Json.str (Json.field "id" j);
    descr = Json.str (Json.field "descr" j);
    observed = float_of_json (Json.field "observed" j);
    limit = float_of_json (Json.field "limit" j);
    holds = Json.bool (Json.field "holds" j);
  }

let json_of_row r =
  let fields =
    Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) r.fields)
  in
  if r.bounds = [] then Json.Obj [ ("fields", fields) ]
  else
    Json.Obj
      [
        ("fields", fields);
        ("bounds", Json.Arr (List.map json_of_bound r.bounds));
      ]

let row_of_json j =
  {
    fields =
      List.map
        (fun (k, v) -> (k, value_of_json v))
        (Json.obj (Json.field "fields" j));
    bounds =
      (match Json.field_opt "bounds" j with
      | Some bs -> List.map bound_of_json (Json.arr bs)
      | None -> []);
  }

let json_of_section s =
  Json.Obj
    [
      ("id", Json.Str s.sid);
      ("caption", Json.Arr (List.map (fun l -> Json.Str l) s.caption));
      ("rows", Json.Arr (List.map json_of_row s.rows));
    ]

let section_of_json j =
  {
    sid = Json.str (Json.field "id" j);
    caption = List.map Json.str (Json.arr (Json.field "caption" j));
    cols = [];
    rows = List.map row_of_json (Json.arr (Json.field "rows" j));
    elide = None;
    indent = 0;
    rule = true;
  }

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("id", Json.Str t.id);
      ("title", Json.Str t.title);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) t.params));
      ("sections", Json.Arr (List.map json_of_section t.sections));
      ("notes", Json.Arr (List.map (fun l -> Json.Str l) t.notes));
    ]

let of_json j =
  let s = Json.str (Json.field "schema" j) in
  if s <> schema then raise (Json.Error ("unknown schema " ^ s));
  {
    id = Json.str (Json.field "id" j);
    title = Json.str (Json.field "title" j);
    params =
      List.map
        (fun (k, v) -> (k, value_of_json v))
        (Json.obj (Json.field "params" j));
    sections = List.map section_of_json (Json.arr (Json.field "sections" j));
    notes = List.map Json.str (Json.arr (Json.field "notes" j));
  }

let to_artifact_string t = Json.to_string (to_json t)
let of_artifact_string s = of_json (Json.parse s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let artifact_path ~dir t = Filename.concat dir (t.id ^ ".json")

let save ~dir t =
  mkdir_p dir;
  let path = artifact_path ~dir t in
  let oc = open_out path in
  output_string oc (to_artifact_string t);
  close_out oc;
  path

let load path = of_artifact_string (Json.read_file path)

(* ------------------------------------------------------------------ *)
(* diffing                                                             *)
(* ------------------------------------------------------------------ *)

(* Floats are deterministic measurements, but committed goldens may cross
   libm versions: allow a relative 1e-9 band.  Time values are wall-clock:
   banded by 75% (relative) plus a flat slack for the sub-millisecond
   jitter region. *)
let float_close a b =
  a = b
  || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
  || (Float.is_nan a && Float.is_nan b)

let time_close a b =
  Float.abs (a -. b) <= (0.75 *. Float.max (Float.abs a) (Float.abs b)) +. 0.25

let value_close a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> x = y
  | Bool x, Bool y -> x = y
  | Float x, Float y -> float_close x y
  | Time x, Time y -> time_close x y
  | _ -> false

let diff ~golden current =
  let out = ref [] in
  let report fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let show = default_render in
  if golden.id <> current.id then
    report "id: golden %s vs current %s" golden.id current.id;
  if golden.title <> current.title then report "%s: title changed" current.id;
  let diff_fields ctx gf cf =
    List.iter
      (fun (k, gv) ->
        match List.assoc_opt k cf with
        | None -> report "%s: field %s missing" ctx k
        | Some cv ->
            if not (value_close gv cv) then
              report "%s: %s = %s, golden %s" ctx k (show cv) (show gv))
      gf;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k gf) then report "%s: new field %s" ctx k)
      cf
  in
  diff_fields (golden.id ^ ".params") golden.params current.params;
  let gsec = golden.sections and csec = current.sections in
  if List.length gsec <> List.length csec then
    report "%s: %d sections, golden %d" current.id (List.length csec)
      (List.length gsec)
  else
    List.iter2
      (fun gs cs ->
        let ctx = Printf.sprintf "%s/%s" current.id gs.sid in
        if gs.sid <> cs.sid then
          report "%s: section id %s, golden %s" current.id cs.sid gs.sid;
        if gs.caption <> cs.caption then report "%s: caption changed" ctx;
        if List.length gs.rows <> List.length cs.rows then
          report "%s: %d rows, golden %d" ctx (List.length cs.rows)
            (List.length gs.rows)
        else
          List.iteri
            (fun i (gr, cr) ->
              let rctx = Printf.sprintf "%s[%d]" ctx i in
              diff_fields rctx gr.fields cr.fields;
              if List.length gr.bounds <> List.length cr.bounds then
                report "%s: %d bounds, golden %d" rctx
                  (List.length cr.bounds) (List.length gr.bounds)
              else
                List.iter2
                  (fun gb cb ->
                    if gb.bid <> cb.bid then
                      report "%s: bound id %s, golden %s" rctx cb.bid gb.bid
                    else if gb.holds <> cb.holds then
                      report "%s: bound %s holds=%b, golden %b" rctx cb.bid
                        cb.holds gb.holds
                    else if
                      not
                        (float_close gb.observed cb.observed
                        && float_close gb.limit cb.limit)
                    then
                      report "%s: bound %s %g<=%g, golden %g<=%g" rctx cb.bid
                        cb.observed cb.limit gb.observed gb.limit)
                  gr.bounds cr.bounds)
            (List.combine gs.rows cs.rows))
      gsec csec;
  if golden.notes <> current.notes then report "%s: notes changed" current.id;
  List.rev !out
