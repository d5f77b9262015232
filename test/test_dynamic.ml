open Ultraspan
open Helpers

(* ---------- stream format ---------- *)

let stream_of_seed ?(batches = 4) ?(ops = 6) ?insert_frac g seed =
  Update_stream.generate
    ~rng:(Rng.create (succ (abs seed)))
    ~batches ~ops ?insert_frac g

let round_trip_is_identity =
  qcheck "stream: text round-trip is the identity" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let s = stream_of_seed g seed in
      let txt = Update_stream.to_string s in
      Update_stream.of_string txt = s
      && Update_stream.to_string (Update_stream.of_string txt) = txt)

let generation_is_deterministic =
  qcheck "stream: same seed, same bytes" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      Update_stream.to_string (stream_of_seed g seed)
      = Update_stream.to_string (stream_of_seed g seed))

let generated_streams_replay =
  qcheck "stream: generated streams apply cleanly" seed_gen (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let s = stream_of_seed ~insert_frac:0.3 g seed in
      ignore (Update_stream.apply_all g s);
      true)

let parse_failure input =
  match Update_stream.of_string input with
  | exception Failure msg ->
      String.length msg >= 13 && String.sub msg 0 13 = "Update_stream"
  | _ -> false

let rejects_malformed () =
  List.iter
    (fun (name, input) ->
      Alcotest.(check bool) name true (parse_failure input))
    [
      ("empty", "");
      ("bad header", "garbage header\n");
      ("wrong schema", "ultraspan-stream/9 0 0\n");
      ("missing batch", "ultraspan-stream/1 0 2\nbatch 0\n");
      ("truncated batch", "ultraspan-stream/1 0 1\nbatch 3\n- 0 1\n");
      ("trailing garbage", "ultraspan-stream/1 0 0\nbatch 0\n");
      ("bad op", "ultraspan-stream/1 0 1\nbatch 1\n* 1 2\n");
      ("self-loop", "ultraspan-stream/1 0 1\nbatch 1\n+ 2 2 1\n");
      ("zero weight", "ultraspan-stream/1 0 1\nbatch 1\n+ 1 2 0\n");
      ("short batch", "ultraspan-stream/1 0 2\nbatch 2\n- 0 1\nbatch 0\n");
    ]

let comments_and_blanks_ignored () =
  let s =
    Update_stream.of_string
      "# a comment\nultraspan-stream/1 9 1\n\nbatch 2\n# inside\n+ 0 4 2\n- 1 2\n"
  in
  Alcotest.(check int) "seed" 9 s.Update_stream.seed;
  Alcotest.(check int) "ops" 2 (Update_stream.op_count s);
  Alcotest.(check int) "inserts" 1 (Update_stream.insert_count s)

let apply_is_strict () =
  let g = Generators.cycle 5 in
  let fails batch =
    match Update_stream.apply g batch with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "delete absent" true
    (fails [ Update_stream.delete 0 2 ]);
  Alcotest.(check bool) "insert existing" true
    (fails [ Update_stream.insert 0 1 1 ]);
  Alcotest.(check bool) "out of range" true
    (fails [ Update_stream.insert 0 9 1 ]);
  (* sequential semantics: delete then re-insert is legal *)
  let g' =
    Update_stream.apply g
      [ Update_stream.delete 0 1; Update_stream.insert 0 1 7 ]
  in
  Alcotest.(check int) "m unchanged" 5 (Graph.m g');
  match Graph.find_edge g' 0 1 with
  | Some eid -> Alcotest.(check int) "new weight" 7 (Graph.weight g' eid)
  | None -> Alcotest.fail "edge 0-1 missing after re-insert"

(* ---------- fault-plan derivation ---------- *)

let faults_become_deletions () =
  let g = Generators.cycle 6 in
  let plan = Faults.sever ~round:1 1 0 (Faults.sever ~round:0 2 3 Faults.empty) in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "round-grouped deletions"
    [ (0, [ (2, 3) ]); (1, [ (0, 1) ]) ]
    (Faults.to_update_stream g plan);
  let s = Update_stream.of_faults g plan in
  Alcotest.(check int) "two batches" 2 (Update_stream.batch_count s);
  Alcotest.(check int) "deletions only" 2 (Update_stream.delete_count s)

let crash_kills_incident_edges () =
  let g = Generators.cycle 6 in
  let plan = Faults.crash ~round:0 0 Faults.empty in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "both incident edges die"
    [ (0, [ (0, 1); (0, 5) ]) ]
    (Faults.to_update_stream g plan)

let fault_stream_dedupes () =
  let g = Generators.cycle 6 in
  let plan =
    Faults.sever ~round:2 0 1
      (Faults.crash ~round:0 0 (Faults.sever ~round:0 3 5 Faults.empty))
  in
  (* 3-5 is not an edge; 0-1 already died with the crash at round 0 *)
  Alcotest.(check (list (pair int (list (pair int int)))))
    "non-edges skipped, repeats dropped"
    [ (0, [ (0, 1); (0, 5) ]) ]
    (Faults.to_update_stream g plan)

let empty_plan_empty_stream () =
  let g = Generators.cycle 6 in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "no faults, no batches" []
    (Faults.to_update_stream g Faults.empty);
  let s = Update_stream.of_faults g Faults.empty in
  Alcotest.(check int) "zero batches" 0 (Update_stream.batch_count s);
  (* drop_prob alone is transient, not a topology change *)
  Alcotest.(check (list (pair int (list (pair int int)))))
    "drops-only plan is still empty" []
    (Faults.to_update_stream g (Faults.with_drops 0.5 Faults.empty))

let all_non_edges_empty_stream () =
  (* every severed pair misses the graph: the whole stream vanishes *)
  let g = Generators.path 6 in
  let plan =
    Faults.sever ~round:0 0 2
      (Faults.sever ~round:1 1 4 (Faults.sever ~round:2 0 5 Faults.empty))
  in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "nothing to delete" []
    (Faults.to_update_stream g plan);
  Alcotest.(check int) "zero batches" 0
    (Update_stream.batch_count (Update_stream.of_faults g plan))

let crash_only_plan_replays () =
  (* crash-stop-only: each round's batch removes the node's surviving
     incident edges, and the stream replays strictly (no double deletes
     even when the second crash's neighbourhood overlaps the first's) *)
  let g = Generators.cycle 5 in
  let plan = Faults.crash ~round:2 1 (Faults.crash ~round:0 0 Faults.empty) in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "overlap deduped across rounds"
    [ (0, [ (0, 1); (0, 4) ]); (2, [ (1, 2) ]) ]
    (Faults.to_update_stream g plan);
  let s = Update_stream.of_faults g plan in
  let g' = Update_stream.apply_all g s in
  Alcotest.(check int) "two edges survive" 2 (Graph.m g');
  Alcotest.(check bool) "out-of-range crash rejected" true
    (match
       Faults.to_update_stream g (Faults.crash ~round:0 9 Faults.empty)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- repair engine ---------- *)

let graph_bytes g = Graph_io.to_string g

(* The differential heart of the suite: the incremental engine and the
   rebuild-from-scratch engine must agree on every verdict after every
   batch, and both must keep the stretch bound. *)
let repair_matches_rebuild =
  qcheck ~count:12 "repair == rebuild: same graph, same verdicts, bound kept"
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let k = 2 + Rng.int rng 2 in
      let g = unit_graph_of_seed ~n_max:36 seed in
      let s = stream_of_seed ~batches:3 ~ops:5 g (succ seed) in
      let cfg = Repair.defaults ~k in
      let inc = Repair.create cfg g in
      let reb = Repair.create { cfg with Repair.mode = `Rebuild } g in
      List.for_all
        (fun b ->
          let _oi = Repair.apply_batch inc b in
          let orr = Repair.apply_batch reb b in
          let vi = Repair.recertify inc and vr = Repair.recertify reb in
          graph_bytes (Repair.graph inc) = graph_bytes (Repair.graph reb)
          && orr.Repair.action = `Rebuild
          && vi.Repair.stretch_ok && vr.Repair.stretch_ok
          && vi.Repair.spanning = vr.Repair.spanning)
        s.Update_stream.batches)

(* Replay reference for the engine and [Update_stream.apply]: a plain pair
   table rebuilt with [Graph.of_edges], sharing none of the merge code
   both of them run. *)
let model_replay g (s : Update_stream.t) =
  let present = Hashtbl.create 64 in
  Graph.iter_edges g (fun e ->
      Hashtbl.replace present (e.Graph.u, e.Graph.v) e.Graph.w);
  List.iter
    (List.iter (function
      | Update_stream.Insert { u; v; w } ->
          assert (not (Hashtbl.mem present (u, v)));
          Hashtbl.replace present (u, v) w
      | Update_stream.Delete { u; v } ->
          assert (Hashtbl.mem present (u, v));
          Hashtbl.remove present (u, v)))
    s.Update_stream.batches;
  Graph.of_edges ~n:(Graph.n g)
    (Hashtbl.fold (fun (u, v) w acc -> (u, v, w) :: acc) present [])

let engine_graph_matches_apply_all =
  qcheck ~count:15 "engine graph == Update_stream.apply_all == model" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:40 seed in
      let s = stream_of_seed g seed in
      let eng = Repair.create (Repair.defaults ~k:2) g in
      ignore (Repair.apply_stream eng s);
      let want = graph_bytes (model_replay g s) in
      graph_bytes (Repair.graph eng) = want
      && graph_bytes (Update_stream.apply_all g s) = want)

let weighted_streams_keep_bound =
  qcheck ~count:10 "weighted graphs: stretch bound survives batches" seed_gen
    (fun seed ->
      let g = graph_of_seed ~n_max:32 seed in
      let s = stream_of_seed ~batches:2 ~ops:4 g seed in
      let eng = Repair.create (Repair.defaults ~k:3) g in
      List.for_all
        (fun b ->
          ignore (Repair.apply_batch eng b);
          (Repair.recertify eng).Repair.stretch_ok)
        s.Update_stream.batches)

let replay_is_bit_identical () =
  let g = unit_graph_of_seed 11 in
  let s = stream_of_seed ~batches:4 ~ops:8 g 11 in
  let run () =
    let eng = Repair.create (Repair.defaults ~k:3) g in
    let outs = Repair.apply_stream eng s in
    (outs, graph_bytes (Repair.graph eng), Repair.spanner eng)
  in
  Alcotest.(check bool) "two replays, same outcomes/graph/spanner" true
    (run () = run ())

let copy_is_independent () =
  let g = unit_graph_of_seed 5 in
  let s = stream_of_seed ~batches:2 ~ops:6 g 5 in
  let eng = Repair.create (Repair.defaults ~k:2) g in
  let snapshot = Repair.copy eng in
  let before = graph_bytes (Repair.graph snapshot) in
  ignore (Repair.apply_stream eng s);
  Alcotest.(check string) "copy untouched by the original's batches" before
    (graph_bytes (Repair.graph snapshot));
  ignore (Repair.apply_stream snapshot s);
  Alcotest.(check string) "copy replays to the same graph"
    (graph_bytes (Repair.graph eng))
    (graph_bytes (Repair.graph snapshot))

let bad_batch_leaves_engine_unchanged () =
  let g = Generators.cycle 8 in
  let eng = Repair.create (Repair.defaults ~k:2) g in
  let before = graph_bytes (Repair.graph eng) in
  (match
     Repair.apply_batch eng
       [ Update_stream.delete 0 1; Update_stream.delete 0 1 ]
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "double delete must raise");
  Alcotest.(check string) "graph unchanged" before
    (graph_bytes (Repair.graph eng));
  Alcotest.(check int) "no batch counted" 1
    (Repair.apply_batch eng [ Update_stream.delete 0 1 ]).Repair.batch

(* Ops built with the raw constructors skip [insert] / [delete]'s checks;
   the shared validator must reject each with a one-line [Failure], and a
   rejected batch (even after a valid op) must leave the engine as it was. *)
let bad_ops_rejected_everywhere () =
  let g = Generators.cycle 8 in
  let bad : (string * Update_stream.op) list =
    [
      ("non-canonical insert of an edge", Insert { u = 1; v = 0; w = 7 });
      ("insert of an edge", Insert { u = 0; v = 1; w = 7 });
      ("self-loop insert", Insert { u = 2; v = 2; w = 1 });
      ("negative endpoint", Insert { u = -1; v = 3; w = 1 });
      ("endpoint >= n", Insert { u = 0; v = 8; w = 1 });
      ("zero weight", Insert { u = 0; v = 2; w = 0 });
      ("negative weight", Insert { u = 0; v = 2; w = -3 });
      ("non-canonical delete", Delete { u = 1; v = 0 });
      ("self-loop delete", Delete { u = 3; v = 3 });
      ("negative delete", Delete { u = -1; v = 0 });
      ("delete of a non-edge", Delete { u = 0; v = 2 });
    ]
  in
  let one_line_failure f =
    match f () with
    | exception Failure msg ->
        String.length msg > 14
        && String.sub msg 0 14 = "Update_stream:"
        && not (String.contains msg '\n')
    | _ -> false
  in
  let cfg =
    { (Repair.defaults ~k:2) with Repair.cert = Some (Repair.Thurimella, 1) }
  in
  let eng = Repair.create cfg g in
  let state () =
    ( graph_bytes (Repair.graph eng),
      Repair.spanner eng,
      Option.map (fun c -> c.Certificate.keep) (Repair.certificate eng),
      Repair.cert_debt eng )
  in
  let before = state () in
  List.iter
    (fun (name, op) ->
      Alcotest.(check bool) ("apply: " ^ name) true
        (one_line_failure (fun () -> Update_stream.apply g [ op ]));
      Alcotest.(check bool) ("engine: " ^ name) true
        (one_line_failure (fun () ->
             Repair.apply_batch eng [ Update_stream.delete 4 5; op ]));
      Alcotest.(check bool) ("engine unchanged: " ^ name) true
        (state () = before))
    bad;
  Alcotest.(check int) "no batch counted" 1
    (Repair.apply_batch eng [ Update_stream.delete 4 5 ]).Repair.batch

(* Words allocated per batch on a churn-shaped input (n = 512, average
   degree 8, 16 ops, k = 3), minor plus direct-major (major minus
   promoted), with a minor collection on both sides so the counters are
   exact.  The pair-table engine allocated 435k-686k words per batch here;
   the array engine with one distance row per dirty vertex 36.2k-41.8k.
   Its dirty balls now share the domain's scratch of [Dijkstra.balls] and
   the insertions come from a walk over the id map, not a mask, so a
   batch allocates the new graph, the map and the spanner mask:
   26.6k-30.7k words (19.4k direct-major), and 42.7k and 40.8k in the
   first two batches while the scratch grows. *)
let alloc_per_batch_bounded () =
  let g =
    Generators.connected_gnp ~rng:(Rng.create 5) ~n:512 ~avg_degree:8.0
  in
  let eng =
    Repair.create { (Repair.defaults ~k:3) with Repair.jobs = 1 } g
  in
  let s = Update_stream.generate ~rng:(Rng.create 6) ~batches:8 ~ops:16 g in
  List.iter
    (fun b ->
      let o, w = alloc_words (fun () -> Repair.apply_batch eng b) in
      check_words
        (Printf.sprintf "batch %d" o.Repair.batch)
        ~ceiling:60_000. (total_words w))
    s.Update_stream.batches

(* A graph of girth > 2k is its own only (2k-1)-spanner: dropping any edge
   leaves its endpoints >= 2k apart.  Deletions cannot lower the girth, so
   after every deletion-only batch the maintained spanner must still hold
   every edge, in both modes.  The start graph is a greedy (2k-1)-spanner
   of a unit-weight G(n,p). *)
let tight_girth_keeps_every_edge =
  qcheck ~count:10 "tight: girth > 2k keeps every edge under deletions"
    seed_gen (fun seed ->
      let k = 2 + (seed mod 2) in
      let g0 = unit_graph_of_seed ~n_max:60 seed in
      let g = Graph.sub_by_eids g0 (Greedy.run ~k g0).Spanner.keep in
      assert (Greedy.girth_exceeds g (Array.make (Graph.m g) true) (2 * k));
      let s =
        stream_of_seed ~batches:4 ~ops:(max 1 (Graph.m g / 8))
          ~insert_frac:0.0 g seed
      in
      Update_stream.insert_count s = 0
      && List.for_all
           (fun mode ->
             let eng =
               Repair.create { (Repair.defaults ~k) with Repair.mode } g
             in
             let full () = Array.for_all Fun.id (Repair.spanner eng) in
             full ()
             && List.for_all
                  (fun b ->
                    ignore (Repair.apply_batch eng b);
                    full ())
                  s.Update_stream.batches)
           [ `Incremental; `Rebuild ])

(* ---------- lazy recertification ---------- *)

let cert_edge_of eng =
  (* some certificate edge of the current graph, as an op *)
  match Repair.certificate eng with
  | None -> Alcotest.fail "engine maintains no certificate"
  | Some c ->
      let g = Repair.graph eng in
      let found = ref None in
      Graph.iter_edges g (fun e ->
          if !found = None && c.Certificate.keep.(e.Graph.id) then
            found := Some (Update_stream.delete e.Graph.u e.Graph.v));
      (match !found with
      | Some op -> op
      | None -> Alcotest.fail "certificate is empty")

let debt_triggers_cert_rebuild () =
  let g = k_connected_graph ~n:24 ~k:5 17 in
  let cfg =
    { (Repair.defaults ~k:2) with
      Repair.cert = Some (Repair.Thurimella, 2);
      headroom = 1;
    }
  in
  let eng = Repair.create cfg g in
  let rebuilds = ref 0 and max_debt = ref 0 in
  for _ = 1 to 6 do
    let o = Repair.apply_batch eng [ cert_edge_of eng ] in
    if o.Repair.cert_rebuilt then incr rebuilds;
    max_debt := max !max_debt o.Repair.cert_debt;
    let v = Repair.recertify ~rng:(Rng.create 3) ~budget:60 eng in
    Alcotest.(check (option bool)) "still a certificate" (Some true)
      v.Repair.cert_ok;
    Alcotest.(check (option int)) "no failure-set violations" (Some 0)
      v.Repair.cert_violations
  done;
  Alcotest.(check bool) "debt crossed the headroom at least once" true
    (!rebuilds >= 1);
  Alcotest.(check bool) "debt never exceeds headroom after a batch" true
    (!max_debt <= 1)

let cert_preserved_under_streams =
  qcheck ~count:8 "certificate k-connectivity preserved on random streams"
    seed_gen (fun seed ->
      let g = k_connected_graph ~n:24 ~k:4 seed in
      let cfg =
        { (Repair.defaults ~k:2) with Repair.cert = Some (Repair.Thurimella, 2) }
      in
      let eng = Repair.create cfg g in
      let s = stream_of_seed ~batches:3 ~ops:4 ~insert_frac:0.4 g seed in
      List.for_all
        (fun b ->
          ignore (Repair.apply_batch eng b);
          let v = Repair.recertify ~rng:(Rng.create seed) ~budget:40 eng in
          v.Repair.cert_ok = Some true && v.Repair.cert_violations = Some 0)
        s.Update_stream.batches)

(* at least one PR 1 fault plan replayed through the engine, recertified *)
let fault_plan_replays_recertified () =
  let g = k_connected_graph ~n:30 ~k:4 3 in
  let plan =
    Faults.random_link_failures
      ~rng:(Rng.create 1)
      g ~within:3 ~count:5 Faults.empty
  in
  let s = Update_stream.of_faults g plan in
  Alcotest.(check bool) "plan produced deletions" true
    (Update_stream.delete_count s = 5);
  let cfg =
    { (Repair.defaults ~k:2) with Repair.cert = Some (Repair.Thurimella, 2) }
  in
  let eng = Repair.create cfg g in
  List.iter
    (fun b ->
      ignore (Repair.apply_batch eng b);
      let v = Repair.recertify ~rng:(Rng.create 9) ~budget:80 eng in
      Alcotest.(check bool) "stretch recertified" true v.Repair.stretch_ok;
      Alcotest.(check bool) "spanning" true v.Repair.spanning;
      Alcotest.(check (option bool)) "certificate recertified" (Some true)
        v.Repair.cert_ok)
    s.Update_stream.batches

let kecss_cert_degrades_gracefully () =
  (* deletions sink the graph below the KECSS precondition: the engine must
     fall back (Thurimella) rather than fail, and stay certified *)
  let g = k_connected_graph ~n:20 ~k:3 7 in
  let cfg =
    { (Repair.defaults ~k:2) with
      Repair.cert = Some (Repair.Kecss, 2);
      headroom = 0;
    }
  in
  let eng = Repair.create cfg g in
  for _ = 1 to 4 do
    ignore (Repair.apply_batch eng [ cert_edge_of eng ]);
    let v = Repair.recertify ~rng:(Rng.create 3) ~budget:40 eng in
    Alcotest.(check (option bool)) "still certified" (Some true) v.Repair.cert_ok
  done

(* ---------- output pin ---------- *)

(* One digest over every observable output of the engine: each outcome
   field (all of them are printed by [pp_outcome]), the spanner and
   certificate masks and the serialized graph after every batch, then the
   engine's [dynamic.repair.*] counters.  The matrix spans unit-weight and
   weighted G(n,p) and the D1 torus, k in {1, 2, 3}, no / Thurimella /
   KECSS certificates and both modes; each run replays a seeded stream and
   then batches that delete and re-insert the same pair, insert and then
   delete a pair, overflow the candidate threshold (inserts only, so the
   repair path falls back) and delete enough spanner edges to force a
   rebuild.  [pin_expected] was recorded when the engine still kept its
   state in (u, v) pair tables; the array-based engine must reproduce
   every count and choice. *)
let pin_expected = "ed23389a98171c7fd11557b6ee12959c"

let mask_string mask =
  String.init (Array.length mask) (fun i -> if mask.(i) then '1' else '0')

(* Batches built against the model graph [g] and the engine's masks. *)
let pin_special_batches g spanner =
  let m = Graph.m g and n = Graph.n g in
  let edges = Graph.edges g in
  let span_ids = List.filter (fun e -> spanner.(e)) (List.init m Fun.id) in
  let non_span = List.filter (fun e -> not spanner.(e)) (List.init m Fun.id) in
  (* a strided walk over the vertex pairs, keeping the absent ones *)
  let absent =
    let seen = Hashtbl.create 64 and acc = ref [] and i = ref 0 in
    while Hashtbl.length seen < (m / 3) + 8 && !i < n * n do
      let a = !i * 37 mod n in
      let b = (a + 2 + (!i / n)) mod n in
      let p = (min a b, max a b) in
      if a <> b && (not (Graph.mem_edge g a b)) && not (Hashtbl.mem seen p)
      then begin
        Hashtbl.replace seen p ();
        acc := p :: !acc
      end;
      incr i
    done;
    Array.of_list (List.rev !acc)
  in
  let reinsert e w =
    let { Graph.u; v; _ } = edges.(e) in
    [ Update_stream.delete u v; Update_stream.insert u v w ]
  in
  let del_reins =
    (match span_ids with
    | e :: _ -> reinsert e (edges.(e).Graph.w + 2)
    | [] -> [])
    @ match non_span with e :: _ -> reinsert e 1 | [] -> []
  in
  let ins_del =
    let a, b = absent.(1) and c, d = absent.(2) in
    [
      Update_stream.insert a b 1;
      Update_stream.delete a b;
      Update_stream.insert c d 2;
    ]
  in
  (* pairs untouched by the two batches above *)
  let overflow =
    List.init ((m / 3) + 2) (fun i ->
        let u, v = absent.(i + 3) in
        Update_stream.insert u v 1)
  in
  [ del_reins; ins_del; overflow ]

let pin_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let record eng o =
    Buffer.add_string buf (Format.asprintf "%a\n" Repair.pp_outcome o);
    Buffer.add_string buf (mask_string (Repair.spanner eng));
    Buffer.add_char buf '\n';
    (match Repair.certificate eng with
    | Some c -> Buffer.add_string buf (mask_string c.Certificate.keep)
    | None -> Buffer.add_char buf '-');
    Buffer.add_string buf
      (Printf.sprintf "\n%d %d %d\n" (Repair.spanner_size eng)
         (Repair.certificate_size eng) (Repair.cert_debt eng));
    Buffer.add_string buf (Graph_io.to_string (Repair.graph eng))
  in
  let gnp =
    Generators.weighted_connected_gnp ~rng:(Rng.create 41) ~n:36
      ~avg_degree:5.0 ~max_w:9
  in
  let graphs =
    [
      ("unit-gnp", Graph.with_unit_weights gnp, 1);
      ("weighted-gnp", gnp, 9);
      ("d1-torus", Generators.torus 28 28, 1);
    ]
  in
  List.iter
    (fun (name, g, max_w) ->
      let stream =
        Update_stream.generate ~rng:(Rng.create 83) ~batches:3 ~ops:6
          ~insert_frac:0.5 ~max_w g
      in
      List.iter
        (fun k ->
          List.iter
            (fun cert ->
              List.iter
                (fun mode ->
                  Buffer.add_string buf
                    (Printf.sprintf "== %s k=%d mode=%s cert=%s\n" name k
                       (match mode with
                       | `Incremental -> "inc"
                       | `Rebuild -> "rb")
                       (match cert with
                       | None -> "none"
                       | Some (Repair.Thurimella, _) -> "thurimella"
                       | Some (Repair.Kecss, _) -> "kecss"));
                  let cfg =
                    { (Repair.defaults ~k) with Repair.mode; cert; jobs = 1 }
                  in
                  let reg = Metrics.create () in
                  let eng = Repair.create ~metrics:reg cfg g in
                  List.iter
                    (fun b -> record eng (Repair.apply_batch eng b))
                    stream.Update_stream.batches;
                  let model = Update_stream.apply_all g stream in
                  List.iter
                    (fun b -> record eng (Repair.apply_batch eng b))
                    (pin_special_batches model (Repair.spanner eng));
                  (* delete 40% of the spanner: past max_affected, so the
                     batch rebuilds from scratch *)
                  let g_now = Repair.graph eng and sp = Repair.spanner eng in
                  let dels = ref [] and seen = ref 0 in
                  Graph.iter_edges g_now (fun e ->
                      if sp.(e.Graph.id) then begin
                        if !seen mod 5 < 2 then
                          dels :=
                            Update_stream.delete e.Graph.u e.Graph.v :: !dels;
                        incr seen
                      end);
                  record eng (Repair.apply_batch eng (List.rev !dels));
                  Buffer.add_string buf
                    (Metrics.exposition ~strip:true (Metrics.snapshot reg)))
                [ `Incremental; `Rebuild ])
            [ None; Some (Repair.Thurimella, 2); Some (Repair.Kecss, 2) ])
        [ 1; 2; 3 ])
    graphs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let outputs_match_pin () =
  Alcotest.(check string) "engine output digest" pin_expected (pin_digest ())

(* A second pin over longer seeded streams: every outcome record and the
   spanner mask after each batch, then the [dynamic.repair.*] counters.
   Unit-weight and weighted ([max_w] 8) G(n,p), plus a unit-weight graph
   whose stream inserts weights up to 8 (the ball radius grows with the
   heaviest edge), n = 400, k = 2..4, in 6 batches of 24 ops; one 160-op
   deletion-heavy batch per run dirties 195-211 balls, more than two
   62-source words.
   [stream_pin_expected] was recorded while every dirty ball was still its
   own budgeted Dijkstra. *)
let stream_pin_expected = "7fc8b97c58914db6bc13e8162635febd"

let stream_pin_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let gnp w seed =
    Generators.weighted_connected_gnp ~rng:(Rng.create seed) ~n:400
      ~avg_degree:8.0 ~max_w:w
  in
  List.iter
    (fun (name, g, max_w) ->
      List.iter
        (fun k ->
          Buffer.add_string buf (Printf.sprintf "== %s k=%d\n" name k);
          let reg = Metrics.create () in
          let eng =
            Repair.create ~metrics:reg
              { (Repair.defaults ~k) with Repair.jobs = 1 }
              g
          in
          let stream =
            Update_stream.generate ~rng:(Rng.create (17 * k)) ~batches:6
              ~ops:24 ~max_w g
          in
          let heavy =
            Update_stream.generate ~rng:(Rng.create (19 * k)) ~batches:1
              ~ops:160 ~insert_frac:0.1 ~max_w
              (Update_stream.apply_all g stream)
          in
          List.iter
            (fun b ->
              let o = Repair.apply_batch eng b in
              Buffer.add_string buf
                (Format.asprintf "%a\n" Repair.pp_outcome o);
              Buffer.add_string buf (mask_string (Repair.spanner eng));
              Buffer.add_char buf '\n')
            (stream.Update_stream.batches @ heavy.Update_stream.batches);
          Buffer.add_string buf
            (Metrics.exposition ~strip:true (Metrics.snapshot reg)))
        [ 2; 3; 4 ])
    [
      ("unit", gnp 1 61, 1);
      ("unit+w8", gnp 1 62, 8);
      ("w8", gnp 8 63, 8);
    ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let outputs_match_stream_pin () =
  Alcotest.(check string) "stream output digest" stream_pin_expected
    (stream_pin_digest ())

(* [`Local] recertification (witness + CONGEST checkers) against the
   ground truth: after every batch of a seeded stream, with and without a
   Thurimella certificate and at jobs 1 and 2, both modes reach the same
   verdicts.  Unit weights only: there every valid (2k-1)-spanner has
   hop-bounded detours, while a weighted repair's detours are bounded in
   weight alone (see [Witness.spanner]'s scope note). *)
let local_recertify_matches_exact =
  qcheck ~count:8 "recertify: `Local verdicts = `Exact verdicts" seed_gen
    (fun seed ->
      let k = 2 + (seed mod 2) in
      let g =
        if seed mod 2 = 0 then unit_graph_of_seed ~n_max:60 seed
        else k_connected_graph ~n:40 ~k:4 seed
      in
      let s = stream_of_seed ~batches:4 ~ops:8 g seed in
      List.for_all
        (fun (cert, jobs) ->
          let cfg = { (Repair.defaults ~k) with Repair.cert; jobs } in
          let local = Repair.create { cfg with Repair.recert = `Local } g in
          let exact = Repair.create cfg g in
          List.for_all
            (fun b ->
              ignore (Repair.apply_batch local b);
              ignore (Repair.apply_batch exact b);
              let vl = Repair.recertify local in
              let ve = Repair.recertify ~rng:(Rng.create seed) ~budget:20 exact in
              Repair.spanner local = Repair.spanner exact
              && vl.Repair.stretch_ok = ve.Repair.stretch_ok
              && vl.Repair.spanning = ve.Repair.spanning
              && vl.Repair.cert_ok = ve.Repair.cert_ok)
            s.Update_stream.batches)
        [
          (None, 1);
          (None, 2);
          (Some (Repair.Thurimella, 2), 1);
          (Some (Repair.Thurimella, 2), 2);
        ])

(* Allocation gate for [`Local] recertification, independent of core
   count and timing (total words: minor plus direct-major).  The instance
   is a perfbench churn unit: connected_gnp n = 512, degree 8, k = 3,
   after one 16-op batch; the warm-up call grows the message plane.  A
   layered witness search with list frontiers and tuple results per
   relaxation, a hash table per node per checker round, list appends for
   the pending walk tokens and a list round trip for the mask allocated
   310.9 k minor and 11.8 k direct-major words; the array kernel, the
   token queue and the mask passed as it is allocate 21.0 k minor and
   10.3 k direct-major words. *)
let recertify_local_alloc_gate () =
  let g =
    Generators.connected_gnp ~rng:(Rng.create 5) ~n:512 ~avg_degree:8.0
  in
  let eng =
    Repair.create
      { (Repair.defaults ~k:3) with Repair.jobs = 1; recert = `Local }
      g
  in
  let s = Update_stream.generate ~rng:(Rng.create 6) ~batches:1 ~ops:16 g in
  List.iter (fun b -> ignore (Repair.apply_batch eng b)) s.Update_stream.batches;
  let run () = Repair.recertify eng in
  ignore (run ());
  let v, w = alloc_words run in
  Alcotest.(check bool) "accepts" true v.Repair.stretch_ok;
  check_words "Repair.recertify (`Local)" ~ceiling:100_000. (total_words w)

let suite =
  [
    round_trip_is_identity;
    generation_is_deterministic;
    generated_streams_replay;
    case "stream: rejects malformed input" rejects_malformed;
    case "stream: comments and blanks ignored" comments_and_blanks_ignored;
    case "stream: strict apply" apply_is_strict;
    case "faults: link failures become deletions" faults_become_deletions;
    case "faults: crash kills incident edges" crash_kills_incident_edges;
    case "faults: dedupe and non-edges" fault_stream_dedupes;
    case "faults: empty plan, empty stream" empty_plan_empty_stream;
    case "faults: all-non-edge plan is empty" all_non_edges_empty_stream;
    case "faults: crash-stop-only plan replays" crash_only_plan_replays;
    repair_matches_rebuild;
    engine_graph_matches_apply_all;
    weighted_streams_keep_bound;
    case "repair: replay is bit-identical" replay_is_bit_identical;
    case "repair: copy is independent" copy_is_independent;
    case "repair: bad batch leaves engine unchanged"
      bad_batch_leaves_engine_unchanged;
    case "repair: output digest matches the pin" outputs_match_pin;
    case "repair: every bad op rejected, engine unchanged"
      bad_ops_rejected_everywhere;
    case "repair: allocation per batch bounded" alloc_per_batch_bounded;
    tight_girth_keeps_every_edge;
    case "cert: debt > headroom triggers rebuild" debt_triggers_cert_rebuild;
    cert_preserved_under_streams;
    case "cert: fault plan replays recertified" fault_plan_replays_recertified;
    slow_case "cert: kecss degrades gracefully" kecss_cert_degrades_gracefully;
    local_recertify_matches_exact;
    case "Repair.recertify (`Local): words under the ceiling"
      recertify_local_alloc_gate;
    case "repair: stream outputs match the pin" outputs_match_stream_pin;
  ]
