(** Typed experiment tables — the machine-checkable artifact layer.

    A [Table.t] is what every bench experiment produces instead of raw
    printf: sections of typed rows, each row optionally carrying {!bound}
    predicates (the paper's guarantees as executable checks, e.g. "size <=
    n + n/t" or "rounds <= 2k+3").  The module renders tables as text in
    the bench harness's historical layout, emits them as deterministic
    JSON artifacts (schema ["ultraspan-table/1"]), parses artifacts back,
    and diffs a fresh run against committed goldens — exact for counts and
    stretch values, tolerance-banded for wall-clock ({!Time}) fields. *)

val schema : string

type value =
  | Int of int
  | Float of float  (** deterministic measurement: exact in diffs *)
  | Time of float  (** wall-clock: tolerance-banded in diffs *)
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
  caption : string list;  (** prose lines printed before the rows *)
  cols : col list;  (** render-only; not serialized *)
  rows : row list;
  elide : int option;  (** text: show first [e] and last 3 when longer *)
  indent : int;
  rule : bool;  (** print a ---- rule after the rows *)
}

type t = {
  id : string;
  title : string;
  params : (string * value) list;
  sections : section list;
  notes : string list;
}

(** {1 Constructors} *)

val bound :
  id:string -> ?descr:string -> observed:float -> limit:float -> bool -> bound

val le : id:string -> ?descr:string -> float -> float -> bound
(** [le ~id observed limit] holds iff [observed <= limit + 1e-9]. *)

val ge : id:string -> ?descr:string -> float -> float -> bound

val flag : id:string -> ?descr:string -> bool -> bound
(** A boolean invariant (encoded observed 1/0, limit 1). *)

val row : ?bounds:bound list -> (string * value) list -> row

val col :
  ?align:[ `L | `R ] ->
  ?render:(value -> string) ->
  ?title:string ->
  w:int ->
  string ->
  col
(** [col ~w key] — a column of width [w] showing field [key]; [title]
    defaults to the key.  Sections sharing the {e same physical} column
    list print one header; a fresh list forces a header reprint. *)

val section :
  ?caption:string list ->
  ?elide:int ->
  ?indent:int ->
  ?rule:bool ->
  cols:col list ->
  string ->
  row list ->
  section

val make :
  id:string ->
  title:string ->
  ?params:(string * value) list ->
  ?notes:string list ->
  section list ->
  t

(** {1 Value helpers} *)

val pretty_float : float -> string
(** ["inf"], [%.0f] above 1000, [%.2f] otherwise (bench convention). *)

val pretty : value -> string
(** Render numerics through {!pretty_float} — for stretch-style columns. *)

val default_render : value -> string
val to_float : value -> float

(** {1 Bound checking} *)

val violations : t -> (string * string * bound) list
(** [(section id, row label, bound)] for every violated bound. *)

val bounds_checked : t -> int
val ok : t -> bool
val row_label : row -> string

(** {1 Text rendering} *)

val render : Buffer.t -> t -> unit
val to_text : t -> string
val print : t -> unit

(** {1 JSON artifacts} *)

val to_json : t -> Json.t
val of_json : Json.t -> t
val to_artifact_string : t -> string
val of_artifact_string : string -> t

val artifact_path : dir:string -> t -> string
(** [dir/<id>.json]. *)

val save : dir:string -> t -> string
(** Write the artifact (creating [dir] if needed); returns the path. *)

val load : string -> t
val mkdir_p : string -> unit

(** {1 Diffing} *)

val diff : golden:t -> t -> string list
(** Human-readable mismatch descriptions; empty means identical up to the
    wall-clock band (75% relative plus 0.25 s flat slack). *)
