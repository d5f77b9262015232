open Ultraspan
open Helpers

(* The harary-backbone-plus-noise workload lives in Helpers.k_connected_graph
   (shared with the resilience suite). *)

(* ---------- Certificate basics ---------- *)

let certificate_basics () =
  let g = Generators.cycle 5 in
  let c = Certificate.of_eids g ~k:2 [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check int) "size" 5 (Certificate.size c);
  Alcotest.(check bool) "full graph certifies itself" true
    (Certificate.is_certificate g c);
  let broken = Certificate.of_eids g ~k:2 [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "missing edge drops 2-connectivity" false
    (Certificate.is_certificate g broken)

let certificate_union () =
  let g = Generators.cycle 4 in
  let a = Certificate.of_eids g ~k:1 [ 0; 1 ] in
  let b = Certificate.of_eids g ~k:1 [ 2; 3 ] in
  let u = Certificate.union a b in
  Alcotest.(check int) "union size" 4 (Certificate.size u)

let cut_property_detects_violation () =
  let g = Generators.cycle 6 in
  let full = Certificate.of_eids g ~k:2 (List.init 6 Fun.id) in
  Alcotest.(check bool) "full ok" true (Certificate.cut_property_exhaustive g full);
  let partial = Certificate.of_eids g ~k:2 [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "partial violates" false
    (Certificate.cut_property_exhaustive g partial)

(* ---------- Nagamochi–Ibaraki ---------- *)

let ni_forests_are_forests =
  qcheck ~count:15 "NI labels are forests" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let labels = Nagamochi_ibaraki.forests g in
      let max_label = Array.fold_left max 1 labels in
      let ok = ref true in
      for l = 1 to max_label do
        let eids = ref [] in
        Array.iteri (fun eid lab -> if lab = l then eids := eid :: !eids) labels;
        if not (Spanning_tree.is_forest g !eids) then ok := false
      done;
      !ok)

let ni_first_forest_spans =
  qcheck "NI forest 1 is a spanning forest" seed_gen (fun seed ->
      let g = unit_graph_of_seed ~n_max:60 seed in
      let labels = Nagamochi_ibaraki.forests g in
      let eids = ref [] in
      Array.iteri (fun eid lab -> if lab = 1 then eids := eid :: !eids) labels;
      Spanning_tree.is_spanning_forest g !eids)

let ni_is_certificate =
  qcheck ~count:15 "NI certificate preserves connectivity" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 5 in
      let g = k_connected_graph ~n:40 ~k:(max 2 k) seed in
      let c = Nagamochi_ibaraki.certificate ~k g in
      Certificate.is_certificate g c
      && Certificate.size c <= k * (Graph.n g - 1))

let ni_cut_property_small =
  qcheck ~count:10 "NI strong cut property (exhaustive)" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 3 in
      let g = k_connected_graph ~n:12 ~k:3 seed in
      Certificate.cut_property_exhaustive g (Nagamochi_ibaraki.certificate ~k g))

(* ---------- Thurimella ---------- *)

let thurimella_is_certificate =
  qcheck ~count:15 "Thurimella certificate valid" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 5 in
      let g = k_connected_graph ~n:40 ~k:(max 2 k) seed in
      let c = Thurimella.certificate ~k g in
      Certificate.is_certificate g c
      && Certificate.size c <= k * (Graph.n g - 1))

let thurimella_cut_property_small =
  qcheck ~count:10 "Thurimella strong cut property" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 3 in
      let g = k_connected_graph ~n:12 ~k:3 seed in
      Certificate.cut_property_exhaustive g (Thurimella.certificate ~k g))

let thurimella_k1_is_forest () =
  let g = k_connected_graph ~n:30 ~k:3 7 in
  let c = Thurimella.certificate ~k:1 g in
  Alcotest.(check bool) "forest size" true (Certificate.size c <= Graph.n g - 1);
  Alcotest.(check bool) "spans" true
    (Connectivity.spans g c.Certificate.keep)

(* ---------- spanner packing (Theorem G.1) ---------- *)

let packing_is_certificate =
  qcheck ~count:10 "Thm G.1 certificate valid" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 4 in
      let g = k_connected_graph ~n:50 ~k:4 seed in
      let out = Spanner_packing.run ~k ~epsilon:0.5 g in
      Certificate.is_certificate g out.Spanner_packing.certificate)

let packing_size_bound =
  qcheck ~count:10 "Thm G.1 size <= kn(1+eps) + slack" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 4 in
      let epsilon = 0.25 +. Rng.float rng 0.5 in
      let g = k_connected_graph ~n:50 ~k:4 seed in
      let out = Spanner_packing.run ~k ~epsilon g in
      float_of_int (Certificate.size out.Spanner_packing.certificate)
      <= Spanner_packing.size_bound ~n:(Graph.n g) ~k ~epsilon +. 1.0)

let packing_cut_property_small =
  qcheck ~count:8 "Thm G.1 strong cut property (exhaustive)" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let k = 1 + Rng.int rng 3 in
      let g = k_connected_graph ~n:12 ~k:3 seed in
      let out = Spanner_packing.run ~k ~epsilon:0.5 g in
      Certificate.cut_property_exhaustive g out.Spanner_packing.certificate)

let packing_layers_disjoint_and_decreasing () =
  let g = k_connected_graph ~n:60 ~k:5 3 in
  let out = Spanner_packing.run ~k:5 ~epsilon:0.5 g in
  let total = List.fold_left ( + ) 0 out.Spanner_packing.layers in
  Alcotest.(check int) "layers partition the certificate" total
    (Certificate.size out.Spanner_packing.certificate)

let packing_deterministic () =
  let g = k_connected_graph ~n:40 ~k:3 11 in
  let a = Spanner_packing.run ~k:3 ~epsilon:0.5 g in
  let b = Spanner_packing.run ~k:3 ~epsilon:0.5 g in
  Alcotest.(check bool) "reproducible" true
    (a.Spanner_packing.certificate.Certificate.keep
    = b.Spanner_packing.certificate.Certificate.keep)

let packing_exhausts_small_graph () =
  (* k larger than the graph can support: certificate = whole graph *)
  let g = Generators.cycle 8 in
  let out = Spanner_packing.run ~k:5 ~epsilon:0.5 g in
  Alcotest.(check int) "whole graph" (Graph.m g)
    (Certificate.size out.Spanner_packing.certificate)

(* ---------- Karger split (Theorem 1.9) ---------- *)

let karger_is_certificate =
  qcheck ~count:8 "Thm 1.9 certificate valid" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 4 in
      let g = k_connected_graph ~n:50 ~k:4 seed in
      let out = Karger_split.run ~rng ~k ~epsilon:0.4 g in
      Certificate.is_certificate g out.Karger_split.certificate)

let karger_with_groups () =
  (* force Q > 1 with a small constant, on a high-k workload *)
  let n = 80 in
  let k = 24 in
  let g = Generators.harary ~k ~n in
  let rng = Rng.create 5 in
  let out = Karger_split.run ~c:0.05 ~rng ~k ~epsilon:0.45 g in
  Alcotest.(check bool) "multiple groups" true (out.Karger_split.groups > 1);
  Alcotest.(check bool) "still a certificate" true
    (Certificate.is_certificate g out.Karger_split.certificate)

let karger_size_reasonable =
  qcheck ~count:6 "Thm 1.9 size within bound" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 3 in
      let g = k_connected_graph ~n:50 ~k:3 seed in
      let out = Karger_split.run ~rng ~k ~epsilon:0.3 g in
      float_of_int (Certificate.size out.Karger_split.certificate)
      <= Float.max
           (Karger_split.size_bound ~n:(Graph.n g) ~k ~epsilon:0.3)
           (float_of_int (Graph.m g)))

(* ---------- cross-algorithm comparisons ---------- *)

let all_certify_hararys () =
  List.iter
    (fun (k, n) ->
      let g = Generators.harary ~k:(k + 1) ~n in
      let rng = Rng.create (k + n) in
      let cs =
        [
          ("NI", Nagamochi_ibaraki.certificate ~k g);
          ("Thu", Thurimella.certificate ~k g);
          ("Pack", (Spanner_packing.run ~k ~epsilon:0.5 g).Spanner_packing.certificate);
          ("Karger", (Karger_split.run ~rng ~k ~epsilon:0.4 g).Karger_split.certificate);
        ]
      in
      List.iter
        (fun (name, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s certifies harary %d,%d" name k n)
            true
            (Certificate.is_certificate g c))
        cs)
    [ (2, 20); (3, 25); (4, 30) ]

let non_connected_graph_certificates () =
  (* on a graph with lambda = 1, certificates must preserve lambda = 1 *)
  let g = Graph.of_edges ~n:7
      [ (0, 1, 1); (1, 2, 1); (2, 0, 1); (2, 3, 1); (3, 4, 1); (4, 5, 1); (5, 3, 1); (5, 6, 1) ]
  in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " preserves bridges") true
        (Certificate.is_certificate g c))
    [
      ("NI", Nagamochi_ibaraki.certificate ~k:2 g);
      ("Thu", Thurimella.certificate ~k:2 g);
      ("Pack", (Spanner_packing.run ~k:2 ~epsilon:0.5 g).Spanner_packing.certificate);
    ]

(* Allocation gate for Thm G.1's packing, independent of core count and
   timing: Spanner_packing.run ~k:2 ~epsilon:0.25 on a degree-bounded
   graph, n = 400, degree 8 (m = 2751).  With the hash-table contraction,
   the tuple-keyed partition and the tuple adjacency rows one call
   allocated 519k minor words and 227k major words (121k direct, 106k
   promoted); on flat arrays and per-domain scratch it allocates 75k
   minor and 70k major words (67k direct, 3k promoted).  Each ceiling
   sits between the two, well clear of both, so only a return to
   per-edge boxing or per-call temporaries trips it.  The warm-up call
   grows the per-domain scratch first. *)
let packing_alloc_gate () =
  let g =
    Generators.Streamed.graph
      (Generators.Streamed.degree_bounded ~seed:1 ~n:400 ~degree:8)
  in
  let run () = Spanner_packing.run ~k:2 ~epsilon:0.25 g in
  ignore (run ());
  Gc.minor ();
  let _, w = alloc_words run in
  check_words "Spanner_packing.run minor" ~ceiling:200_000. w.minor;
  check_words "Spanner_packing.run major" ~ceiling:130_000.
    (w.direct_major +. w.promoted)

let suite =
  [
    case "certificate: basics" certificate_basics;
    case "certificate: union" certificate_union;
    case "certificate: cut property detects" cut_property_detects_violation;
    ni_forests_are_forests;
    ni_first_forest_spans;
    ni_is_certificate;
    ni_cut_property_small;
    thurimella_is_certificate;
    thurimella_cut_property_small;
    case "thurimella: k=1 forest" thurimella_k1_is_forest;
    packing_is_certificate;
    packing_size_bound;
    packing_cut_property_small;
    case "packing: layers partition" packing_layers_disjoint_and_decreasing;
    case "packing: deterministic" packing_deterministic;
    case "packing: exhausts small graph" packing_exhausts_small_graph;
    karger_is_certificate;
    case "karger: multiple groups" karger_with_groups;
    karger_size_reasonable;
    case "cross: all certify hararys" all_certify_hararys;
    case "cross: bridges preserved" non_connected_graph_certificates;
    case "packing: words under the ceilings" packing_alloc_gate;
  ]
