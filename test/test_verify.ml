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

(* ---------- the list-based layered search, kept as a differential oracle ---------- *)

(* [Witness.spanner]'s hop-bounded search as first written: one
   [dist]/[par] entry per (layer, vertex), an O(h) scan over the layers
   for the best entry on every relaxation, list frontiers walked in
   reverse insertion order, and all [2k-1] layers for every source. *)
module Reference = struct
  let spanner g ~k keep =
    let n = Graph.n g and m = Graph.m g in
    let hmax = (2 * k) - 1 in
    let inf = max_int in
    let dist = Array.make ((hmax + 1) * n) inf in
    let par = Array.make ((hmax + 1) * n) (-1) in
    let touched = ref [] in
    let set h v d p =
      let i = (h * n) + v in
      if dist.(i) = inf then touched := i :: !touched;
      dist.(i) <- d;
      par.(i) <- p
    in
    let get h v = dist.((h * n) + v) in
    let best_upto h v =
      let bd = ref inf and bh = ref (-1) in
      for h' = 0 to h do
        let d = get h' v in
        if d < !bd then begin
          bd := d;
          bh := h'
        end
      done;
      (!bd, !bh)
    in
    let detour = Array.make m [||] in
    let missing = ref 0 in
    for u = 0 to n - 1 do
      let targets =
        Graph.fold_adj g u
          (fun acc v eid ->
            if u < v && not keep.(eid) then (v, eid) :: acc else acc)
          []
      in
      if targets <> [] then begin
        let budget =
          List.fold_left
            (fun b (_, eid) -> max b (hmax * Graph.weight g eid))
            0 targets
        in
        set 0 u 0 (-1);
        let frontier = ref [ u ] in
        for h = 1 to hmax do
          let next = ref [] in
          List.iter
            (fun v ->
              let dv = get (h - 1) v in
              Graph.iter_adj g v (fun v' eid ->
                  if keep.(eid) then begin
                    let nd = dv + Graph.weight g eid in
                    let cur, _ = best_upto h v' in
                    if nd <= budget && nd < cur then begin
                      if get h v' = inf then next := v' :: !next;
                      set h v' nd v
                    end
                  end))
            (List.rev !frontier);
          frontier := List.rev !next
        done;
        List.iter
          (fun (v, eid) ->
            let d, h = best_upto hmax v in
            if d <= hmax * Graph.weight g eid then begin
              let path = Array.make (h + 1) 0 in
              let cur = ref v and hh = ref h in
              while !hh >= 0 do
                path.(!hh) <- !cur;
                cur := par.((!hh * n) + !cur);
                decr hh
              done;
              detour.(eid) <- path
            end
            else incr missing)
          (List.rev targets);
        List.iter
          (fun i ->
            dist.(i) <- inf;
            par.(i) <- -1)
          !touched;
        touched := []
      end
    done;
    (detour, !missing)
end

(* Each edge kept with probability [p]: low [p] leaves detours missing. *)
let random_mask ~rng ~p g =
  Array.init (Graph.m g) (fun _ -> Rng.float rng 1.0 < p)

let sp_of_mask keep = { Spanner.keep; rounds = Rounds.create () }

let witness_matches_oracle =
  qcheck ~count:60 "witness == list-based layered search" seed_gen
    (fun seed ->
      let k = 1 + (seed mod 5) in
      let g =
        if seed / 5 mod 2 = 0 then unit_graph_of_seed ~n_max:80 seed
        else graph_of_seed ~n_max:80 ~max_w:1000 seed
      in
      let rng = Rng.create (seed + 7) in
      List.for_all
        (fun keep ->
          let w = Witness.spanner g ~k (sp_of_mask keep) in
          let detour, missing = Reference.spanner g ~k keep in
          w.Witness.missing = missing && w.Witness.detour = detour)
        [
          (sp_of g k).Spanner.keep;
          random_mask ~rng ~p:(0.3 +. Rng.float rng 0.65) g;
        ])

(* ---------- output pins for the witness and the walk checker ---------- *)

(* Seeded unit-weight and weighted (1..1000) G(n,p), k = 1..4, with the
   Bs_derand spanner and a random mask (keep probability 0.4, 0.7 or
   0.9) as the claimed spanner. *)
let pin_cases =
  lazy
    (List.concat_map
       (fun seed ->
         List.concat_map
           (fun k ->
             List.concat_map
               (fun (wname, g) ->
                 let rng = Rng.create ((97 * seed) + k) in
                 let p = [| 0.4; 0.7; 0.9 |].(seed mod 3) in
                 [
                   (Printf.sprintf "%s s=%d k=%d bs" wname seed k, g, k,
                    (sp_of g k).Spanner.keep);
                   (Printf.sprintf "%s s=%d k=%d p=%.1f" wname seed k p, g, k,
                    random_mask ~rng ~p g);
                 ])
               [
                 ("unit", unit_graph_of_seed ~n_max:60 seed);
                 ("weighted", graph_of_seed ~n_max:60 ~max_w:1000 seed);
               ])
           [ 1; 2; 3; 4 ])
       (List.init 12 (fun i -> i + 1)))

let path_string p =
  String.concat "," (Array.to_list (Array.map string_of_int p))

(* One MD5 over every case's [missing] and non-empty detours, recorded
   with the list-based search ([Reference]) as [Witness.spanner]. *)
let witness_pin_expected = "b00171f7f820b4e184b9da1476808814"

let witness_output_pin () =
  let buf = Buffer.create (1 lsl 16) in
  let missing = ref 0 in
  List.iter
    (fun (name, g, k, keep) ->
      let w = Witness.spanner g ~k (sp_of_mask keep) in
      missing := !missing + w.Witness.missing;
      Buffer.add_string buf
        (Printf.sprintf "%s missing=%d\n" name w.Witness.missing);
      Array.iteri
        (fun e p ->
          if p <> [||] then
            Buffer.add_string buf (Printf.sprintf "%d:%s\n" e (path_string p)))
        w.Witness.detour)
    (Lazy.force pin_cases);
  Alcotest.(check bool) "some detours missing" true (!missing > 0);
  Alcotest.(check string) "witness digest" witness_pin_expected
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Corruptions of one detour (chosen by [rng] among the non-empty ones):
   an interior vertex moved, the path reversed, the last hop cut off,
   and a spanner edge of the path dropped from the claimed mask. *)
let corrupted_inputs ~rng g keep detour =
  let with_detours =
    List.filter (fun e -> detour.(e) <> [||]) (List.init (Graph.m g) Fun.id)
  in
  match with_detours with
  | [] -> []
  | es ->
      let e = List.nth es (Rng.int rng (List.length es)) in
      let p = detour.(e) in
      let len = Array.length p in
      let edit f =
        let d = Array.copy detour in
        d.(e) <- f (Array.copy p);
        (keep, d)
      in
      let moved =
        edit (fun q ->
            if len > 2 then q.(1) <- (q.(1) + 1) mod Graph.n g;
            q)
      in
      let reversed =
        edit (fun q -> Array.init len (fun i -> q.(len - 1 - i)))
      in
      let cut = edit (fun q -> Array.sub q 0 (len - 1)) in
      let dropped =
        let keep' = Array.copy keep in
        (match Graph.find_edge g p.(0) p.(1) with
        | Some a -> keep'.(a) <- false
        | None -> ());
        (keep', detour)
      in
      [ moved; reversed; cut; dropped ]

(* One MD5 over [Checkers.spanner]'s accept arrays and stats on every
   pin case, with the intact witness and the four corruptions. *)
let checker_pin_expected = "a8c187c3564699a49ed8f4ea8d82943e"

let checker_output_pin () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, g, k, keep) ->
      let w = Witness.spanner g ~k (sp_of_mask keep) in
      let rng = Rng.create (Hashtbl.hash name) in
      List.iteri
        (fun i (keep, detour) ->
          let cv = Checkers.spanner g ~keep ~k ~detour in
          let s = cv.Checkers.stats in
          Buffer.add_string buf
            (Printf.sprintf "%s #%d %s %d/%d/%d/%d\n" name i
               (String.init (Array.length cv.Checkers.accept) (fun v ->
                    if cv.Checkers.accept.(v) then '1' else '0'))
               s.Network.rounds s.messages s.max_words s.wakeups))
        ((keep, w.Witness.detour)
        :: corrupted_inputs ~rng g keep w.Witness.detour))
    (Lazy.force pin_cases);
  Alcotest.(check string) "checker digest" checker_pin_expected
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Worst case for the search: the greedy (2k-1)-spanner of a seeded
   G(n,p) has girth > 2k, so once one of its edges is cleared from the
   mask the other paths between its endpoints all have >= 2k hops.  The
   witness must report exactly that edge missing and the checker must
   reject, with unit weights and with weights. *)
let girth_tight_minus_one_edge =
  qcheck ~count:10 "girth > 2k minus one edge: one detour missing, rejected"
    seed_gen (fun seed ->
      List.for_all
        (fun (k, g0) ->
          let g = Graph.sub_by_eids g0 (Greedy.run ~k g0).Spanner.keep in
          let m = Graph.m g in
          let keep = Array.make m true in
          keep.(seed mod m) <- false;
          let w = Witness.spanner g ~k (sp_of_mask keep) in
          let cv = Checkers.spanner g ~keep ~k ~detour:w.Witness.detour in
          Greedy.girth_exceeds g (Array.make m true) (2 * k)
          && w.Witness.missing = 1
          && not (Checkers.all_accept cv))
        [
          (2, unit_graph_of_seed ~n_max:80 seed);
          (3, unit_graph_of_seed ~n_max:80 seed);
          (2, graph_of_seed ~n_max:80 seed);
          (3, graph_of_seed ~n_max:80 seed);
        ])

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
    witness_matches_oracle;
    case "witness outputs match the pin" witness_output_pin;
    case "walk checker outputs match the pin" checker_output_pin;
    girth_tight_minus_one_edge;
  ]
