open! Import

type op =
  | Insert of { u : int; v : int; w : int }
  | Delete of { u : int; v : int }

type batch = op list

type t = { seed : int; batches : batch list }

let schema = "ultraspan-stream/1"

let empty = { seed = 0; batches = [] }

let canon who u v =
  if u < 0 || v < 0 then
    failwith (Printf.sprintf "Update_stream: %s %d-%d: negative endpoint" who u v);
  if u = v then
    failwith (Printf.sprintf "Update_stream: %s %d-%d: self-loop" who u v);
  if u < v then (u, v) else (v, u)

let insert u v w =
  let u, v = canon "insert" u v in
  if w < 1 then
    failwith
      (Printf.sprintf "Update_stream: insert %d-%d: weight %d < 1" u v w);
  Insert { u; v; w }

let delete u v =
  let u, v = canon "delete" u v in
  Delete { u; v }

let batch_count t = List.length t.batches

let op_count t = List.fold_left (fun acc b -> acc + List.length b) 0 t.batches

let count_kind p t =
  List.fold_left
    (fun acc b -> List.fold_left (fun acc op -> if p op then acc + 1 else acc) acc b)
    0 t.batches

let insert_count = count_kind (function Insert _ -> true | Delete _ -> false)

let delete_count = count_kind (function Delete _ -> true | Insert _ -> false)

(* ---------- generation ---------- *)

(* Live-edge model: a swap-remove array for uniform deletion picks plus a
   membership table for insertion rejection sampling. *)
let generate ~rng ~batches ~ops ?(insert_frac = 0.5) ?max_w g =
  if batches < 0 then invalid_arg "Update_stream.generate: negative batch count";
  if ops < 0 then invalid_arg "Update_stream.generate: negative op count";
  if not (insert_frac >= 0.0 && insert_frac <= 1.0) then
    invalid_arg "Update_stream.generate: insert_frac outside [0, 1]";
  let n = Graph.n g in
  if n < 2 then invalid_arg "Update_stream.generate: graph needs >= 2 vertices";
  let max_w =
    match max_w with
    | Some w ->
        if w < 1 then invalid_arg "Update_stream.generate: max_w < 1" else w
    | None -> Array.fold_left (fun acc e -> max acc e.Graph.w) 1 (Graph.edges g)
  in
  let present = Hashtbl.create (2 * (Graph.m g + 1)) in
  let live = ref (Array.make (max 16 (Graph.m g)) (0, 0)) in
  let count = ref 0 in
  let add_live key =
    if !count = Array.length !live then begin
      let bigger = Array.make (2 * !count) (0, 0) in
      Array.blit !live 0 bigger 0 !count;
      live := bigger
    end;
    !live.(!count) <- key;
    Hashtbl.replace present key !count;
    incr count
  in
  let remove_live key =
    let i = Hashtbl.find present key in
    Hashtbl.remove present key;
    decr count;
    let last = !live.(!count) in
    if i < !count then begin
      !live.(i) <- last;
      Hashtbl.replace present last i
    end
  in
  Graph.iter_edges g (fun e -> add_live (e.Graph.u, e.Graph.v));
  let try_insert () =
    (* rejection-sample an absent pair; None when the graph looks full *)
    let attempts = ref 0 in
    let found = ref None in
    while !found = None && !attempts < 64 do
      incr attempts;
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b then begin
        let key = (min a b, max a b) in
        if not (Hashtbl.mem present key) then found := Some key
      end
    done;
    match !found with
    | None -> None
    | Some (u, v) ->
        let w = 1 + Rng.int rng max_w in
        add_live (u, v);
        Some (insert u v w)
  in
  let try_delete () =
    if !count = 0 then None
    else begin
      let u, v = !live.(Rng.int rng !count) in
      remove_live (u, v);
      Some (delete u v)
    end
  in
  let gen_op () =
    let want_insert = Rng.float rng 1.0 < insert_frac in
    let first, second = if want_insert then (try_insert, try_delete) else (try_delete, try_insert) in
    match first () with Some op -> Some op | None -> second ()
  in
  let gen_batch () = List.filter_map (fun _ -> gen_op ()) (List.init ops Fun.id) in
  { seed = 0; batches = List.init batches (fun _ -> gen_batch ()) }

let of_faults g spec =
  let batches =
    List.map
      (fun (_round, dels) -> List.map (fun (u, v) -> Delete { u; v }) dels)
      (Faults.to_update_stream g spec)
  in
  { seed = spec.Faults.seed; batches }

(* ---------- replay ---------- *)

(* The one op validator: the constructors are public, so a replayed op may
   carry anything. *)
let check_op n op =
  let what, u, v =
    match op with
    | Insert { u; v; _ } -> ("insert", u, v)
    | Delete { u; v } -> ("delete", u, v)
  in
  let bad why =
    failwith (Printf.sprintf "Update_stream: %s %d-%d: %s" what u v why)
  in
  if not (0 <= u && u < v && v < n) then
    bad (Printf.sprintf "not 0 <= u < v < %d" n);
  match op with
  | Insert { w; _ } when w < 1 -> bad (Printf.sprintf "weight %d < 1" w)
  | _ -> ()

(* Stage the batch in a table keyed [u * n + v] holding each touched
   pair's final state ([w > 0]: present at inserted weight [w]; [0]:
   absent).  A pair that [g] holds must be deleted before anything else,
   so a staged pair that [g] holds has lost its original edge. *)
let merge g batch =
  let n = Graph.n g in
  let staged = Hashtbl.create 16 in
  List.iter
    (fun op ->
      check_op n op;
      let u, v, w =
        match op with
        | Insert { u; v; w } -> (u, v, w)
        | Delete { u; v } -> (u, v, 0)
      in
      let key = (u * n) + v in
      let present =
        match Hashtbl.find_opt staged key with
        | Some w -> w > 0
        | None -> Graph.mem_edge g u v
      in
      if present = (w > 0) then
        failwith
          (Printf.sprintf "Update_stream: %s edge %d-%d"
             (if present then "insert of existing" else "delete of absent")
             u v);
      Hashtbl.replace staged key w)
    batch;
  let delete = ref [] and insert = ref [] in
  Hashtbl.iter
    (fun key w ->
      let u = key / n and v = key mod n in
      Option.iter (fun e -> delete := e :: !delete) (Graph.find_edge g u v);
      if w > 0 then insert := (u, v, w) :: !insert)
    staged;
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  Graph.splice g ~delete:(sorted !delete) ~insert:(sorted !insert)

let apply g batch = fst (merge g batch)

let apply_all g t = List.fold_left apply g t.batches

(* ---------- text round-trip ---------- *)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" schema t.seed (List.length t.batches));
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "batch %d\n" (List.length b));
      List.iter
        (fun op ->
          Buffer.add_string buf
            (match op with
            | Insert { u; v; w } -> Printf.sprintf "+ %d %d %d\n" u v w
            | Delete { u; v } -> Printf.sprintf "- %d %d\n" u v))
        b)
    t.batches;
  Buffer.contents buf

let parse_op line =
  match line.[0] with
  | '+' ->
      let u, v, w =
        try Scanf.sscanf line "+ %d %d %d %!" (fun u v w -> (u, v, w))
        with _ -> failwith ("Update_stream: bad insert line: " ^ line)
      in
      insert u v w
  | '-' ->
      let u, v =
        try Scanf.sscanf line "- %d %d %!" (fun u v -> (u, v))
        with _ -> failwith ("Update_stream: bad delete line: " ^ line)
      in
      delete u v
  | _ -> failwith ("Update_stream: bad op line: " ^ line)

let of_string s =
  let lines =
    List.filter
      (fun l -> String.length l > 0 && l.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' s))
  in
  match lines with
  | [] -> failwith "Update_stream: empty input"
  | header :: rest ->
      let tag, seed, nbatches =
        try Scanf.sscanf header "%s %d %d %!" (fun t s b -> (t, s, b))
        with _ -> failwith ("Update_stream: bad header: " ^ header)
      in
      if tag <> schema then
        failwith
          (Printf.sprintf "Update_stream: unsupported schema %S (want %s)" tag
             schema);
      if nbatches < 0 then failwith "Update_stream: negative batch count";
      let rec take_ops acc lines k =
        if k = 0 then (List.rev acc, lines)
        else
          match lines with
          | [] -> failwith "Update_stream: truncated batch"
          | l :: _ when String.length l >= 5 && String.sub l 0 5 = "batch" ->
              failwith ("Update_stream: batch shorter than its header: " ^ l)
          | l :: rest -> take_ops (parse_op l :: acc) rest (k - 1)
      in
      let rec take_batches acc lines k =
        if k = 0 then
          if lines <> [] then
            failwith "Update_stream: trailing content after last batch"
          else List.rev acc
        else
          match lines with
          | [] -> failwith "Update_stream: missing batch header"
          | l :: rest ->
              let nops =
                try Scanf.sscanf l "batch %d %!" Fun.id
                with _ -> failwith ("Update_stream: bad batch header: " ^ l)
              in
              if nops < 0 then failwith "Update_stream: negative op count";
              let ops, rest = take_ops [] rest nops in
              take_batches (ops :: acc) rest (k - 1)
      in
      { seed; batches = take_batches [] rest nbatches }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 4096
         done
       with End_of_file -> ());
      of_string (Buffer.contents buf))

let pp ppf t =
  Format.fprintf ppf "stream(%d batches, +%d/-%d ops, seed %d)"
    (batch_count t) (insert_count t) (delete_count t) t.seed
