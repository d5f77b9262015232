(* The verification plane: witness builders, CONGEST checker programs,
   eps-far probes, the Verify front door and the corruption matrix. *)

open Ultraspan
open Helpers

let sp_of g k = (Bs_derand.run ~k g).Bs_derand.spanner

let run_spanner_checker ?engine ?jobs g sp k =
  let w = Witness.spanner g ~k sp in
  let cv =
    Checkers.spanner ?engine ?jobs g ~keep:sp.Spanner.keep ~k
      ~detour:w.Witness.detour
  in
  (w, cv)

(* ---------- witness completeness + checker completeness ---------- *)

let unweighted_accepts =
  qcheck ~count:15 "spanner witness complete + checker accepts (unit weights)"
    seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let k = 2 + (seed mod 3) in
      let w, cv = run_spanner_checker g (sp_of g k) k in
      w.Witness.missing = 0 && Checkers.all_accept cv)

let weighted_accepts =
  qcheck ~count:15 "spanner witness complete + checker accepts (weighted)"
    seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:70 ~max_w:20 seed in
      let k = 2 + (seed mod 3) in
      let w, cv = run_spanner_checker g (sp_of g k) k in
      w.Witness.missing = 0 && Checkers.all_accept cv)

let whole_graph_spanner () =
  (* A tree spanner keeps every edge: no walks, immediate acceptance. *)
  let g = Generators.binary_tree 31 in
  let sp = sp_of g 2 in
  let w, cv = run_spanner_checker g sp 2 in
  Alcotest.(check int) "no missing witnesses" 0 w.Witness.missing;
  Alcotest.(check int) "no messages" 0 cv.Checkers.stats.Network.messages;
  Alcotest.(check bool) "accepts" true (Checkers.all_accept cv)

let empty_spanner_rejected () =
  let g = unit_graph_of_seed 3 in
  let v = Verify.spanner ~mode:Verify.Local ~k:2 g (Spanner.empty g) in
  Alcotest.(check bool) "rejected" false v.Verify.ok;
  Alcotest.(check bool) "has rejecting nodes" true (v.Verify.rejects > 0)

let cert_accepts name builder =
  qcheck ~count:12 name seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:80 seed in
      let k = 2 + (seed mod 2) in
      let cert = builder ~k g in
      match Witness.certificate g cert with
      | Error e -> QCheck2.Test.fail_reportf "no witness: %s" e
      | Ok w ->
          let cv =
            Checkers.forests g ~keep:cert.Certificate.keep ~k
              ~forest:w.Witness.forest ~parent:w.Witness.parent
              ~depth:w.Witness.depth ~root:w.Witness.root
          in
          Checkers.all_accept cv
          && cv.Checkers.stats.Network.rounds <= 3)

let thurimella_accepts =
  cert_accepts "thurimella witness accepts in O(1) rounds"
    (fun ~k g -> Thurimella.certificate ~k g)

let ni_accepts =
  cert_accepts "nagamochi-ibaraki witness accepts in O(1) rounds"
    (fun ~k g -> Nagamochi_ibaraki.certificate ~k g)

(* ---------- corruption matrix: detection + byte-identity ---------- *)

let matrix_run ?engine ?jobs ?(seed = 11) ?(quick = true) () =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  let ok = Verify.matrix ?engine ?jobs ~seed ~quick ppf in
  Format.pp_print_flush ppf ();
  (ok, Buffer.contents b)

let matrix_detects () =
  let ok, transcript = matrix_run () in
  if not ok then Alcotest.failf "matrix failed:\n%s" transcript;
  Alcotest.(check bool) "mentions corruptions" true
    (String.length transcript > 0)

(* The quick matrix, and the full one at the CLI's default seed. *)
let matrix_byte_identical () =
  List.iter
    (fun (seed, quick) ->
      let ok, refe = matrix_run ~engine:`Ref ~seed ~quick () in
      let _, fast1 = matrix_run ~engine:`Fast ~jobs:1 ~seed ~quick () in
      let _, fast4 = matrix_run ~engine:`Fast ~jobs:4 ~seed ~quick () in
      let what = Printf.sprintf "seed %d, quick %b" seed quick in
      if not ok then Alcotest.failf "%s: matrix failed:\n%s" what refe;
      Alcotest.(check string) ("ref = fast -j1, " ^ what) refe fast1;
      Alcotest.(check string) ("ref = fast -j4, " ^ what) refe fast4)
    [ (11, true); (42, false) ]

(* ---------- eps-far probes ---------- *)

let eps_far_connected () =
  let g = Generators.torus 16 16 in
  let r = Eps_far.connectivity ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "accepts" true r.Eps_far.accepted;
  Alcotest.(check bool) "vertex budget" true
    (r.Eps_far.vertex_queries <= r.Eps_far.samples * r.Eps_far.cap)

let eps_far_matching_rejected () =
  let n = 64 in
  let g =
    Graph.of_edges ~n (List.init (n / 2) (fun i -> ((2 * i), (2 * i) + 1, 1)))
  in
  let r = Eps_far.connectivity ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "rejects" false r.Eps_far.accepted;
  match r.Eps_far.witness with
  | Some (_, size) -> Alcotest.(check int) "witness component" 2 size
  | None -> Alcotest.fail "no witness"

let eps_far_keep_mask () =
  let g = unit_graph_of_seed 9 in
  let none = Array.make (Graph.m g) false in
  let r = Eps_far.connectivity ~keep:none ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "empty subgraph rejected" false r.Eps_far.accepted;
  let all = Array.make (Graph.m g) true in
  let r = Eps_far.connectivity ~keep:all ~seed:5 ~epsilon:0.1 g in
  Alcotest.(check bool) "full connected subgraph accepted" true
    r.Eps_far.accepted

(* ---------- the Verify front door ---------- *)

let front_door_spanner () =
  let g = unit_graph_of_seed 5 in
  let sp = sp_of g 3 in
  List.iter
    (fun mode ->
      let v = Verify.spanner ~mode ~k:3 g sp in
      Alcotest.(check bool) (Verify.mode_name mode ^ " ok") true v.Verify.ok)
    [ Verify.Local; Verify.Exact; Verify.Probe ]

let front_door_certificate () =
  let g = k_connected_graph ~k:3 17 in
  let cert = Thurimella.certificate ~k:3 g in
  List.iter
    (fun mode ->
      let v = Verify.certificate ~mode g cert in
      Alcotest.(check bool) (Verify.mode_name mode ^ " ok") true v.Verify.ok)
    [ Verify.Local; Verify.Exact; Verify.Probe ]

let local_fallback_on_non_peeling () =
  (* Keeping *all* edges of a dense graph is a valid certificate but not a
     union of k spanning-forest peelings, so no witness exists: Local must
     fall back to the exact checker and say so. *)
  let g = unit_graph_of_seed 7 in
  let all = List.init (Graph.m g) (fun e -> e) in
  Alcotest.(check bool) "dense enough" true (Graph.m g > 2 * Graph.n g);
  let cert = Certificate.of_eids g ~k:2 all in
  (match Witness.certificate g cert with
  | Ok _ -> Alcotest.fail "expected no witness for the all-edges certificate"
  | Error _ -> ());
  let v = Verify.certificate ~mode:Verify.Local g cert in
  Alcotest.(check bool) "fallback verdict ok" true v.Verify.ok;
  Alcotest.(check bool) "fallback noted" true
    (String.length v.Verify.note > 0)

let checker_validates_inputs () =
  let g = unit_graph_of_seed 4 in
  let bad_len = Array.make (Graph.m g + 1) false in
  Alcotest.check_raises "keep length"
    (Invalid_argument "Checkers.spanner: keep length mismatch") (fun () ->
      ignore
        (Checkers.spanner g ~keep:bad_len ~k:2
           ~detour:(Array.make (Graph.m g) [||])))

let suite =
  [
    unweighted_accepts;
    weighted_accepts;
    case "whole-graph spanner: vacuous accept" whole_graph_spanner;
    case "empty spanner rejected" empty_spanner_rejected;
    thurimella_accepts;
    ni_accepts;
    case "corruption matrix: all detected" matrix_detects;
    slow_case "matrix byte-identical across engines and jobs"
      matrix_byte_identical;
    case "eps-far: connected accepted within budget" eps_far_connected;
    case "eps-far: far-from-connected rejected" eps_far_matching_rejected;
    case "eps-far: keep-mask subgraph" eps_far_keep_mask;
    case "front door: spanner modes" front_door_spanner;
    case "front door: certificate modes" front_door_certificate;
    case "local fallback on non-peeling certificate"
      local_fallback_on_non_peeling;
    case "checker input validation" checker_validates_inputs;
  ]
