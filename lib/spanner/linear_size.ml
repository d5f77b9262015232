open! Import

type variant = Deterministic | Randomized of Rng.t

type phase_info = {
  phase : int;
  nodes : int;
  edges : int;
  x : float;
  g_iters : int;
  radius_bound : int;
}

type outcome = {
  spanner : Spanner.t;
  phases : phase_info list;
  stretch_bound : float;
}

let alpha0 = 3.0

(* Iterated logs of n down to alpha0: arr.(0) = n, arr.(j) = log2 arr.(j-1).
   P is the largest index with arr.(P) >= alpha0 (paper notation
   log^(P) n >= alpha0). *)
let iterated_logs n =
  let rec go x acc = if x < alpha0 then List.rev (x :: acc) else go (Float.log2 x) (x :: acc) in
  go (float_of_int (max 4 n)) []

let g_of_x ~weighted x =
  let iw = if weighted then 1 else 0 in
  let lx = Float.max 1.0 (Float.log2 x) in
  let llx = Float.max 0.0 (Float.log2 lx) in
  let raw = float_of_int (1 + iw) *. x *. (1.0 +. (2.0 *. llx /. lx)) in
  max 1 (int_of_float (ceil raw))

let schedule ~weighted n =
  let arr = Array.of_list (iterated_logs n) in
  (* arr.(p) >= alpha0 > arr.(p+1); phases use x_i = arr.(p-i+1)/arr.(p-i+2)
     in paper indexing.  Here arr.(0) = n, arr.(j) = log^(j) n. *)
  let p = Array.length arr - 2 in
  if p < 1 then [ (2.0, g_of_x ~weighted 2.0) ]
  else
    List.init p (fun i ->
        (* i = 0 is phase 1: x_1 = log^(P) n / log^(P+1) n. *)
        let num = arr.(p - i) and den = arr.(p - i + 1) in
        let x = Float.max 2.0 (num /. Float.max 1.0 den) in
        (x, g_of_x ~weighted x))

let run ?(variant = Deterministic) g0 =
  let weighted = not (Graph.is_unit_weighted g0) in
  let sched = schedule ~weighted (Graph.n g0) in
  let n_phases = List.length sched in
  let rounds = Rounds.create () in
  let spanner_keep = Array.make (Graph.m g0) false in
  let phases = ref [] in
  let stretch_bound = ref 1.0 in
  (* base eid = the g0 edge id of edge [eid] of the current graph
     ([to_base] is [None] while the current graph is g0). *)
  let current = ref g0 in
  let to_base = ref None in
  let base eid = match !to_base with None -> eid | Some a -> a.(eid) in
  let radius_bound = ref 0 in
  let stop = ref false in
  Rounds.span rounds "linear-size" (fun () ->
  List.iteri
    (fun idx (x, g_iters) ->
      if not !stop then
        Rounds.span rounds (Printf.sprintf "phase-%d" (idx + 1)) (fun () ->
        let gi = !current in
        let last_phase = idx = n_phases - 1 in
        let n_i = Graph.n gi in
        (* Make sure the last phase kills everyone: the deterministic
           cluster bound n·p^g < 1 needs g > log n / log x. *)
        let g_iters =
          if last_phase then
            max g_iters
              (1 + int_of_float (ceil (log (float_of_int (n_i + 1)) /. log x)))
          else g_iters
        in
        phases :=
          {
            phase = idx + 1;
            nodes = n_i;
            edges = Graph.m gi;
            x;
            g_iters;
            radius_bound = !radius_bound;
          }
          :: !phases;
        stretch_bound := !stretch_bound *. float_of_int ((2 * g_iters) + 1);
        let state = Bs_core.create gi in
        let p = 1.0 /. x in
        let phase_rounds = Rounds.create () in
        (match variant with
        | Deterministic ->
            ignore
              (Bs_derand.simulate ~state ~p ~iters:g_iters ~rounds:phase_rounds ())
        | Randomized rng ->
            ignore
              (Baswana_sen.iterations ~rng ~state ~p ~iters:g_iters
                 ~rounds:phase_rounds));
        if last_phase && Bs_core.n_clusters state > 0 then begin
          (* Randomized variant may leave survivors; the explicit finishing
             iteration (nobody sampled) kills them, as in plain BS. *)
          ignore (Bs_core.finish state);
          Rounds.charge_aggregate ~label:"linear:final" phase_rounds
            ~radius:g_iters
        end;
        (* Cluster-graph dilation: each simulated round on the cluster
           graph costs up to (2·radius+1) rounds on G. *)
        Rounds.charge
          ~label:(Printf.sprintf "linear:phase%d" (idx + 1))
          rounds
          (Rounds.total phase_rounds * ((2 * !radius_bound) + 1));
        (* Collect this phase's spanner edges, translated back to g0. *)
        Array.iteri
          (fun eid kept -> if kept then spanner_keep.(base eid) <- true)
          (Bs_core.spanner_mask state);
        if not last_phase then begin
          let contraction = Bs_core.alive_quotient state in
          let q = contraction.Contraction.quotient in
          if Graph.n q = 0 || Graph.m q = 0 then begin
            (* Everything died (or no inter-cluster edges remain): the
               remaining clusters' trees are already in the spanner. *)
            ignore (Bs_core.finish state);
            Array.iteri
              (fun eid kept ->
                if kept then spanner_keep.(base eid) <- true)
              (Bs_core.spanner_mask state);
            stop := true
          end
          else begin
            to_base := Some (Array.map base contraction.Contraction.repr_eid);
            current := q;
            radius_bound := ((2 * g_iters) + 1) * (!radius_bound + 1)
          end
        end))
    sched);
  let spanner = { Spanner.keep = spanner_keep; rounds } in
  { spanner; phases = List.rev !phases; stretch_bound = !stretch_bound }
