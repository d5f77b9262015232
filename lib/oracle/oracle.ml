open! Import

let schema = "ultraspan-oracle/2"

type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  k : int;
  orig_m : int;
  graph : Graph.t;
  orig_eid : ivec;
  clusters : int;
  comp : ivec;
}

let n t = Graph.n t.graph
let m t = Graph.m t.graph

let ivec len : ivec = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

let ivec_of_array a =
  let v = ivec (Array.length a) in
  Array.iteri (fun i x -> v.{i} <- x) a;
  v

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile g ~k (sp : Spanner.t) =
  if k < 1 then invalid_arg "Oracle.compile: k must be >= 1";
  if Array.length sp.Spanner.keep <> Graph.m g then
    invalid_arg "Oracle.compile: spanner mask does not match the graph";
  let sub, mapping = Graph.sub_with_mapping g sp.Spanner.keep in
  let comp, clusters = Connectivity.components sub in
  {
    k;
    orig_m = Graph.m g;
    graph = sub;
    orig_eid = ivec_of_array mapping;
    clusters;
    comp = ivec_of_array comp;
  }

(* ------------------------------------------------------------------ *)
(* binary format                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "USPANORC"
let version = 2
let header_words = 7

let payload_words t = (4 * m t) + n t

(* Serialize the payload once into bytes: the checksum, [save] and the
   tests all read from the same encoding. *)
let payload_bytes t =
  let words = payload_words t in
  let b = Bytes.create (8 * words) in
  let pos = ref 0 in
  let put x =
    Bytes.set_int64_le b (8 * !pos) (Int64.of_int x);
    incr pos
  in
  Graph.iter_edges t.graph (fun e ->
      put e.Graph.u;
      put e.Graph.v;
      put e.Graph.w);
  let put_vec (v : ivec) =
    for i = 0 to Bigarray.Array1.dim v - 1 do
      put v.{i}
    done
  in
  put_vec t.orig_eid;
  put_vec t.comp;
  assert (!pos = words);
  b

(* FNV-1a over bytes, 64-bit. *)
let fnv1a b =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let checksum t = fnv1a (payload_bytes t)

let save path t =
  let payload = payload_bytes t in
  let b = Bytes.create (8 + (8 * header_words) + Bytes.length payload) in
  Bytes.blit_string magic 0 b 0 8;
  let put i x = Bytes.set_int64_le b (8 + (8 * i)) x in
  put 0 (Int64.of_int version);
  put 1 (Int64.of_int (n t));
  put 2 (Int64.of_int (m t));
  put 3 (Int64.of_int t.orig_m);
  put 4 (Int64.of_int t.k);
  put 5 (Int64.of_int t.clusters);
  put 6 (fnv1a payload);
  Bytes.blit payload 0 b (8 + (8 * header_words)) (Bytes.length payload);
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  Bytes.length b

(* ------------------------------------------------------------------ *)
(* load                                                                *)
(* ------------------------------------------------------------------ *)

let bad path fmt =
  Printf.ksprintf
    (fun s -> failwith (Printf.sprintf "%s: not an %s artifact (%s)" path schema s))
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let load path =
  let s = try read_file path with Sys_error msg -> failwith msg in
  let b = Bytes.unsafe_of_string s in
  if Bytes.length b < 8 + (8 * header_words) then
    bad path "truncated: %d bytes, need at least %d for the header"
      (Bytes.length b)
      (8 + (8 * header_words));
  if not (String.equal (String.sub s 0 8) magic) then
    bad path "bad magic %S" (String.sub s 0 8);
  let hdr i = Int64.to_int (Bytes.get_int64_le b (8 + (8 * i))) in
  let v = hdr 0 in
  if v <> version then bad path "unsupported version %d (this build reads %d)" v version;
  let gn = hdr 1 and gm = hdr 2 and orig_m = hdr 3 and k = hdr 4 and clusters = hdr 5 in
  let want = fun who x lo -> if x < lo then bad path "%s %d out of range" who x in
  want "n" gn 0;
  want "m" gm 0;
  want "orig_m" orig_m gm;
  want "k" k 1;
  want "clusters" clusters 0;
  if clusters > gn then bad path "clusters %d exceeds n %d" clusters gn;
  (* Bound the counts by the file size before any multiplication: an edge
     takes 32 bytes (u, v, w, orig_eid) and a vertex 8 (comp), so a hostile
     header cannot wrap the size computation below and pass it. *)
  let len = Bytes.length b in
  if gm > len / 32 then bad path "m %d exceeds what %d bytes can hold" gm len;
  if gn > len / 8 then bad path "n %d exceeds what %d bytes can hold" gn len;
  let words = (4 * gm) + gn in
  let expect = 8 + (8 * header_words) + (8 * words) in
  if len <> expect then
    bad path "truncated or oversized payload: %d bytes, header promises %d" len
      expect;
  let payload = Bytes.sub b (8 + (8 * header_words)) (8 * words) in
  let sum = fnv1a payload in
  if not (Int64.equal sum (Bytes.get_int64_le b (8 + (8 * 6)))) then
    bad path "checksum mismatch (corrupt payload)";
  (* one off-heap arena for the whole payload; the metadata vectors below
     are zero-copy sub-views of it *)
  let arena = ivec words in
  for i = 0 to words - 1 do
    arena.{i} <- Int64.to_int (Bytes.get_int64_le payload (8 * i))
  done;
  let cursor = ref 0 in
  let view len =
    let v = Bigarray.Array1.sub arena !cursor len in
    cursor := !cursor + len;
    v
  in
  let edges = view (3 * gm) in
  let orig_eid = view gm in
  let comp = view gn in
  (* Streamed, replayable reconstruction: ids come out in canonical sorted
     order, which is exactly the order [payload_bytes] wrote them in, so
     edge ids round-trip bit-for-bit. *)
  let graph =
    try
      Graph.of_edge_iter ~n:gn (fun f ->
          for e = 0 to gm - 1 do
            f edges.{3 * e} edges.{(3 * e) + 1} edges.{(3 * e) + 2}
          done)
    with Invalid_argument msg -> bad path "bad edge list: %s" msg
  in
  if Graph.m graph <> gm then
    bad path "edge list is not canonical: %d edges collapsed to %d" gm
      (Graph.m graph);
  let check_range who (v : ivec) lo hi =
    for i = 0 to Bigarray.Array1.dim v - 1 do
      if v.{i} < lo || v.{i} >= hi then
        bad path "%s[%d] = %d out of range [%d, %d)" who i v.{i} lo hi
    done
  in
  check_range "orig_eid" orig_eid 0 orig_m;
  check_range "comp" comp 0 clusters;
  (* A spanner edge across two cluster labels would make the engine
     answer unreachable for a connected pair.  O(m). *)
  Graph.iter_edges graph (fun e ->
      if comp.{e.Graph.u} <> comp.{e.Graph.v} then
        bad path "edge %d joins clusters %d and %d" e.Graph.id comp.{e.Graph.u}
          comp.{e.Graph.v});
  { k; orig_m; graph; orig_eid; clusters; comp }

(* ------------------------------------------------------------------ *)

let vec_equal (a : ivec) (b : ivec) =
  Bigarray.Array1.dim a = Bigarray.Array1.dim b
  &&
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    if a.{i} <> b.{i} then ok := false
  done;
  !ok

let equal a b =
  a.k = b.k && a.orig_m = b.orig_m && a.clusters = b.clusters
  && Graph.n a.graph = Graph.n b.graph
  && Graph.edges a.graph = Graph.edges b.graph
  && vec_equal a.orig_eid b.orig_eid
  && vec_equal a.comp b.comp

let pp fmt t =
  Format.fprintf fmt "oracle: %d vertices, %d spanner edges, %d cluster(s), k=%d"
    (n t) (m t) t.clusters t.k
