(* Shared helpers for the test-suite. *)

open Ultraspan

let qcheck ?(count = 30) name gen law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen law)

(* A reproducible random connected weighted graph keyed by a seed. *)
let graph_of_seed ?(n_max = 120) ?(max_w = 100) seed =
  let rng = Rng.create (succ (abs seed)) in
  let n = 5 + Rng.int rng (n_max - 5) in
  let avg_degree = 2.0 +. Rng.float rng 8.0 in
  Generators.weighted_connected_gnp ~rng ~n ~avg_degree ~max_w

let unit_graph_of_seed ?(n_max = 120) seed =
  Graph.with_unit_weights (graph_of_seed ~n_max seed)

let seed_gen = QCheck2.Gen.int_bound 1_000_000

(* A random graph with decent connectivity: a Harary backbone plus noise.
   Ground-truth workload for the certificate and resilience suites. *)
let k_connected_graph ?(n = 60) ~k seed =
  let rng = Rng.create seed in
  let h = Generators.harary ~k ~n in
  let extra = ref [] in
  for _ = 1 to n do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then extra := (a, b, 1) :: !extra
  done;
  let base =
    Array.to_list
      (Array.map (fun e -> (e.Graph.u, e.Graph.v, e.Graph.w)) (Graph.edges h))
  in
  Graph.of_edges ~n (base @ !extra)

(* Words allocated by [f ()]: minor words, and the major words split into
   direct major allocations (blocks too large for the minor heap) and
   promotions.  [total_words] counts each allocated word once.  Every
   allocation gate of the suite reads its words here. *)
type words = { minor : float; direct_major : float; promoted : float }

let alloc_words f =
  let mi0, pr0, ma0 = Metrics.gc_words () in
  let r = f () in
  let mi1, pr1, ma1 = Metrics.gc_words () in
  let promoted = pr1 -. pr0 in
  (r, { minor = mi1 -. mi0; direct_major = ma1 -. ma0 -. promoted; promoted })

let total_words w = w.minor +. w.direct_major

let check_words what ~ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.0f words, ceiling %.0f" what words ceiling

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let case name f = Alcotest.test_case name `Quick f

(* ---------- CONGEST programs ---------- *)

(* [payload] from [me] to every neighbour, in increasing order. *)
let send_all g mb me payload =
  let { Graph.off; _ } = Graph.csr g in
  for a = off.(me) to off.(me + 1) - 1 do
    Network.send mb ~arc:a payload
  done

(* [payload] from [me] to the neighbour [u]. *)
let send_to g mb me u payload =
  Network.send mb ~arc:(Graph.arc_index g me u) payload

let has_mail mb = Network.fold mb (fun _ _ -> true) false

(* The root floods a token; every node records the round it first hears
   it. *)
let flood_program root =
  {
    Network.init = (fun _ _ -> -1);
    round =
      (fun g ~round ~me st mb ->
        if round = 0 && me = root then begin
          send_all g mb me [| 1 |];
          { Network.state = 0; halt = true }
        end
        else if st = -1 && has_mail mb then begin
          send_all g mb me [| 1 |];
          { Network.state = round; halt = true }
        end
        else { Network.state = st; halt = true });
  }

let slow_case name f = Alcotest.test_case name `Slow f
