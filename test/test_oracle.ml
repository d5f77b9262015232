open Ultraspan
open Helpers

(* The distance-oracle serving layer: the ultraspan-oracle/2 binary format
   round-trips bit-for-bit, corrupt or hostile files are rejected with
   one-line diagnostics, the batch engine's answers are exactly the spanner
   distances (so the (2k-1) contract of a valid spanner transfers) at any
   job count, and result files are byte-identical across job counts. *)

let spanner_of ~k g = (Bs_derand.run ~k g).Bs_derand.spanner

(* A structurally interesting mask: random subset of the edges, so the
   compiled oracle has several clusters and unreachable pairs.  The engine
   contract (answers = exact spanner distances) holds for any mask. *)
let random_mask seed g =
  let rng = Rng.create (seed + 7) in
  let keep = Array.init (Graph.m g) (fun _ -> Rng.int rng 4 > 0) in
  { Spanner.keep; rounds = Rounds.create () }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_tmp f =
  let path = Filename.temp_file "oracle" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* ---------- binary format ---------- *)

let compile_roundtrip =
  qcheck ~count:25 "compile -> save -> load is structural identity" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:80 seed in
      let o = Oracle.compile g ~k:3 (random_mask seed g) in
      with_tmp (fun path ->
          let bytes = Oracle.save path o in
          let o' = Oracle.load path in
          bytes > 0 && Oracle.equal o o'
          && Int64.equal (Oracle.checksum o) (Oracle.checksum o')))

let real_spanner_roundtrip () =
  let g = unit_graph_of_seed 11 in
  let o = Oracle.compile g ~k:2 (spanner_of ~k:2 g) in
  with_tmp (fun path ->
      ignore (Oracle.save path o);
      let o' = Oracle.load path in
      Alcotest.(check bool) "equal" true (Oracle.equal o o');
      (* edge ids round-trip: the reloaded graph maps every spanner edge
         to the same original id *)
      Graph.iter_edges o'.Oracle.graph (fun e ->
          let u', v' = Graph.endpoints g o'.Oracle.orig_eid.{e.Graph.id} in
          Alcotest.(check (pair int int)) "orig endpoints" (e.Graph.u, e.Graph.v)
            (u', v')))

let corruption_rejected () =
  let g = unit_graph_of_seed 5 in
  let o = Oracle.compile g ~k:3 (spanner_of ~k:3 g) in
  with_tmp (fun path ->
      let bytes = Oracle.save path o in
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
      let expect_failure what =
        match Oracle.load path with
        | _ -> Alcotest.failf "%s was accepted" what
        | exception Failure msg ->
            Alcotest.(check bool)
              (what ^ " diagnostic names the file") true
              (String.length msg > 0
              && String.sub msg 0 (String.length path) = path)
      in
      let original = read () in
      write (String.sub original 0 (bytes / 2));
      expect_failure "truncated file";
      (* v2 payload offsets: the edge list starts right after the header,
         comp after the 4m words of edges and orig_eid *)
      let payload = 8 + (8 * 7) in
      let flip what pos =
        let b = Bytes.of_string original in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
        write (Bytes.to_string b);
        expect_failure what
      in
      flip "flipped edge-list byte" (payload + 3);
      flip "flipped comp byte" (payload + (8 * 4 * Oracle.m o));
      write "USPANORCgarbage";
      expect_failure "short garbage";
      write ("XXXXXXXX" ^ String.sub original 8 (bytes - 8));
      expect_failure "bad magic")

(* A 64-byte file whose header promises 2^58 edges: 8 * 4m wraps to 0, so
   a length check alone passes it, and the checksum of an empty payload is
   the FNV offset basis.  The counts must be bounded by the file size
   before anything is multiplied or allocated; a version-1 header is
   rejected by its version alone. *)
let hostile_header_rejected () =
  let header version =
    let b = Bytes.make 64 '\000' in
    Bytes.blit_string "USPANORC" 0 b 0 8;
    List.iteri
      (fun i x -> Bytes.set_int64_le b (8 + (8 * i)) x)
      [ version; 0L; Int64.shift_left 1L 58; Int64.shift_left 1L 58; 1L; 0L;
        0xcbf29ce484222325L ];
    Bytes.to_string b
  in
  List.iter
    (fun (version, needle) ->
      with_tmp (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (header version));
          match Oracle.load path with
          | _ -> Alcotest.failf "version-%Ld hostile header accepted" version
          | exception Failure msg ->
              if not (contains msg needle && not (String.contains msg '\n'))
              then
                Alcotest.failf "diagnostic %S is not one line naming %S" msg
                  needle))
    [ (1L, "unsupported version 1"); (2L, "m 288230376151711744 exceeds") ]

(* A checksum-valid artifact whose cluster labels contradict its graph:
   [save] recomputes the checksum, so only the structural checks of [load]
   stand between this file and a wrong "unreachable" answer.  Two clusters
   {0, 1} and {2, 3}, with vertex 1 relabelled into the second. *)
let label_contradiction_rejected () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let o =
    Oracle.compile g ~k:1
      { Spanner.keep = [| true; true |]; rounds = Rounds.create () }
  in
  let comp = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 4 in
  Bigarray.Array1.blit o.Oracle.comp comp;
  comp.{1} <- 1;
  with_tmp (fun path ->
      ignore (Oracle.save path { o with Oracle.comp });
      match Oracle.load path with
      | _ -> Alcotest.fail "comp split across an edge was accepted"
      | exception Failure msg ->
          if not (contains msg "joins clusters") then
            Alcotest.failf "diagnostic %S does not mention %S" msg
              "joins clusters")

(* ---------- engine correctness ---------- *)

let reference_answers (o : Oracle.t) qs =
  Array.map
    (function
      | Query_engine.Dist (s, t) ->
          Query_engine.Dist_answer (Dijkstra.distance o.Oracle.graph s t)
      | Query_engine.Mem (u, v) ->
          Query_engine.Mem_answer
            (if u = v then None
             else
               Option.map
                 (fun e -> o.Oracle.orig_eid.{e})
                 (Graph.find_edge o.Oracle.graph u v)))
    qs

let exact_at_jobs_1_and_4 o qs =
  let expected = reference_answers o qs in
  List.for_all
    (fun jobs ->
      let answers, stats = Query_engine.run ~jobs o qs in
      stats.Query_engine.queries = Array.length qs && answers = expected)
    [ 1; 4 ]

(* 120 distinct sources, each the source of 5 interleaved queries, on one
   weighted cluster: more recurring sources than the 64 blocks of a
   parallel section. *)
let many_hot_sources =
  lazy
    (let n = 200 in
     let g =
       Generators.weighted_connected_gnp ~rng:(Rng.create 41) ~n
         ~avg_degree:6.0 ~max_w:100
     in
     let o = Oracle.compile g ~k:3 (spanner_of ~k:3 g) in
     let sources = 120 and per_source = 5 in
     let qs =
       Array.init (sources * per_source) (fun i ->
           let s = i mod sources and j = i / sources in
           Query_engine.Dist (s, (s + 1 + (37 * j)) mod n))
     in
     o.Oracle.clusters = 1 && exact_at_jobs_1_and_4 o qs)

let engine_exact =
  qcheck ~count:20 "batch answers are exact spanner distances + membership"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:70 seed in
      let o = Oracle.compile g ~k:3 (random_mask seed g) in
      let qs =
        Query_engine.generate ~rng:(Rng.create seed) ~n:(Graph.n g) ~count:200
      in
      Lazy.force many_hot_sources && exact_at_jobs_1_and_4 o qs)

let stretch_contract () =
  let g = unit_graph_of_seed 23 in
  let k = 3 in
  let o = Oracle.compile g ~k (spanner_of ~k g) in
  let qs = Query_engine.generate ~rng:(Rng.create 9) ~n:(Graph.n g) ~count:400 in
  let answers, _ = Query_engine.run ~jobs:1 o qs in
  Array.iteri
    (fun i q ->
      match (q, answers.(i)) with
      | Query_engine.Dist (s, t), Query_engine.Dist_answer d ->
          let dg = Dijkstra.distance g s t in
          if d < dg || d > ((2 * k) - 1) * dg then
            Alcotest.failf "d_H(%d,%d) = %d outside [%d, %d]" s t d dg
              (((2 * k) - 1) * dg)
      | _ -> ())
    qs;
  match
    Query_engine.spot_check ~rng:(Rng.create 4) g o qs answers
  with
  | Ok c -> Alcotest.(check bool) "spot-check ran" true (c > 0)
  | Error m -> Alcotest.fail m

let jobs_invariance () =
  let g = graph_of_seed ~n_max:90 31 in
  let o = Oracle.compile g ~k:3 (spanner_of ~k:3 g) in
  let qs = Query_engine.generate ~rng:(Rng.create 17) ~n:(Graph.n g) ~count:600 in
  let a1, s1 = Query_engine.run ~jobs:1 o qs in
  let a4, s4 = Query_engine.run ~jobs:4 o qs in
  Alcotest.(check string) "result files byte-identical for -j 1 vs -j 4"
    (Query_engine.render_results qs a1)
    (Query_engine.render_results qs a4);
  Alcotest.(check (list int)) "deterministic stats"
    [ s1.Query_engine.queries; s1.Query_engine.dist; s1.Query_engine.mem;
      s1.Query_engine.unreachable ]
    [ s4.Query_engine.queries; s4.Query_engine.dist; s4.Query_engine.mem;
      s4.Query_engine.unreachable ]

(* ---------- text formats ---------- *)

let query_file_roundtrip () =
  let qs =
    [| Query_engine.Dist (0, 5); Query_engine.Mem (2, 3);
       Query_engine.Dist (7, 7) |]
  in
  let path = Filename.temp_file "queries" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Query_engine.save_queries path qs;
      Alcotest.(check bool) "round-trip" true (Query_engine.load_queries path = qs))

let malformed_queries_rejected () =
  let reject what s =
    match Query_engine.parse_queries ~path:"q.txt" s with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Failure msg ->
        Alcotest.(check bool) (what ^ " names the file") true
          (String.length msg >= 5 && String.sub msg 0 5 = "q.txt")
  in
  reject "bad header" "ultraspan-queries/9\ndist 1 2\n";
  reject "bad arity" "ultraspan-queries/1\ndist 1\n";
  reject "bad vertex" "ultraspan-queries/1\ndist 1 x\n";
  reject "negative vertex" "ultraspan-queries/1\nmem -1 2\n";
  reject "unknown kind" "ultraspan-queries/1\npath 1 2\n"

let out_of_range_rejected () =
  let g = unit_graph_of_seed 3 in
  let o = Oracle.compile g ~k:2 (spanner_of ~k:2 g) in
  match Query_engine.run ~jobs:1 o [| Query_engine.Dist (0, Graph.n g) |] with
  | _ -> Alcotest.fail "out-of-range query accepted"
  | exception Failure _ -> ()

let suite =
  [
    compile_roundtrip;
    Alcotest.test_case "real-spanner save/load round-trip" `Quick
      real_spanner_roundtrip;
    Alcotest.test_case "corrupt artifacts rejected" `Quick corruption_rejected;
    Alcotest.test_case "hostile header counts rejected" `Quick
      hostile_header_rejected;
    Alcotest.test_case "contradictory cluster labels rejected" `Quick
      label_contradiction_rejected;
    engine_exact;
    Alcotest.test_case "(2k-1) stretch contract + spot-check" `Quick
      stretch_contract;
    Alcotest.test_case "results byte-identical across jobs" `Quick
      jobs_invariance;
    Alcotest.test_case "query file round-trip" `Quick query_file_roundtrip;
    Alcotest.test_case "malformed query files rejected" `Quick
      malformed_queries_rejected;
    Alcotest.test_case "out-of-range query rejected" `Quick
      out_of_range_rejected;
  ]
