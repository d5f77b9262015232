(* Bench harness: regenerates the paper's tables and figure as empirical
   analogues (see DESIGN.md §2 for the experiment index and EXPERIMENTS.md
   for recorded output and the artifact schema).

   Every experiment builds an [Exp_table.t]: typed rows with declared
   bound predicates (the paper's guarantees as executable checks), which
   are rendered as text AND written as deterministic JSON artifacts.

   Default: run every experiment at moderate scale and write artifacts.
   [--quick]            smaller instances (CI-friendly)
   [--all]              run every experiment (the default selection)
   [--table ID]         run one experiment; repeatable
                        (t1 t2 t3 t4 t5 t6 t7 t8 t9 f1 r1 a1 a2 o1 o2 d1 v1
                        q1, and xfail, the negative control)
   [--strict]           exit 1 if any declared bound is violated
   [--artifacts DIR]    where to write JSON artifacts (default: artifacts)
   [--against DIR]      diff this run against golden artifacts in DIR
                        instead of writing; exit 1 on any difference
                        (wall-clock cells are banded, see Table.diff)
   [--refresh-goldens]  with --against DIR: rewrite DIR instead of diffing
   [--jobs N | -j N]    fan independent sections/trials, and the
                        simulator's sharded rounds, over N domains
                        (default 1); artifacts are byte-identical for
                        every N
   [--metrics FILE]     write the harness metrics snapshot to FILE
   [--verify MODE]      after the tables, verify freshly built artifacts
                        (spanner + certificate) in MODE (local|exact|
                        probe); a rejection counts as a bound violation,
                        so with --strict it fails the run *)

open Ultraspan
module T = Exp_table

let fmt = Printf.printf

let jobs = ref 1

(* The harness-level metrics registry (--metrics FILE).  Tables that
   temporarily attach their own registry to the domain pool (O2) restore
   this one afterwards. *)
let global_metrics : Metrics.t option ref = ref None

(* Parallel List.map/mapi over independent table sections or rows.  The
   results come back in list order and every builder seeds its own RNGs,
   so the tables — and hence the JSON artifacts — are identical for every
   job count.  Only the wall-clock tables (t9, o1) stay sequential: their
   Time cells measure phases that must not share cores. *)
let pmap f xs =
  let a = Array.of_list xs in
  Array.to_list (Parallel.map_array ~jobs:!jobs (Array.length a) (fun i -> f a.(i)))

let pmapi f xs =
  let a = Array.of_list xs in
  Array.to_list
    (Parallel.map_array ~jobs:!jobs (Array.length a) (fun i -> f i a.(i)))

let pconcat_map f xs = List.concat (pmap f xs)

(* Bounded keyed cache for generated input graphs: the same (generator,
   params, seed) tuple recurs across tables (the quick grid is built by
   both F1 and T5), and [Graph.t] is immutable so sharing is safe.  The
   builders may run on several domains, so lookups are mutex-protected;
   the build runs under the lock too, keeping the hit/miss totals
   deterministic (for one key: first access misses, the rest hit).  FIFO
   eviction bounds the footprint. *)
module Gcache = struct
  let lock = Mutex.create ()
  let tbl : (string, Graph.t) Hashtbl.t = Hashtbl.create 64
  let order : string Queue.t = Queue.create ()
  let capacity = 48
  let hits = ref 0
  let misses = ref 0

  (* Registry handles for the harness --metrics snapshot.  [find] may run
     on worker domains, but every update happens under [lock], which
     provides the synchronization the Metrics hot path does not.  The
     totals are a function of the table selection alone (first access per
     key misses, the rest hit), so they live outside [timing.*]. *)
  let m_hits = ref (Metrics.counter Metrics.disabled "bench.gcache.hits_total")

  let m_misses =
    ref (Metrics.counter Metrics.disabled "bench.gcache.misses_total")

  let set_metrics reg =
    m_hits := Metrics.counter reg "bench.gcache.hits_total";
    m_misses := Metrics.counter reg "bench.gcache.misses_total"

  let find key build =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some g ->
            incr hits;
            Metrics.incr !m_hits;
            g
        | None ->
            incr misses;
            Metrics.incr !m_misses;
            let g = build () in
            Hashtbl.add tbl key g;
            Queue.add key order;
            if Queue.length order > capacity then
              Hashtbl.remove tbl (Queue.pop order);
            g)

  let gnp ~seed ~n ~avg_degree =
    find (Printf.sprintf "gnp/%d/%d/%g" seed n avg_degree) (fun () ->
        Generators.connected_gnp ~rng:(Rng.create seed) ~n ~avg_degree)

  let wgnp ~seed ~n ~avg_degree ~max_w =
    find
      (Printf.sprintf "wgnp/%d/%d/%g/%d" seed n avg_degree max_w)
      (fun () ->
        Generators.weighted_connected_gnp ~rng:(Rng.create seed) ~n ~avg_degree
          ~max_w)

  let grid side =
    find (Printf.sprintf "grid/%d" side) (fun () -> Generators.grid side side)

  let torus side =
    find (Printf.sprintf "torus/%d" side) (fun () -> Generators.torus side side)

  let harary ~k ~n =
    find (Printf.sprintf "harary/%d/%d" k n) (fun () -> Generators.harary ~k ~n)

  let geometric ~seed ~n ~radius =
    find
      (Printf.sprintf "geo/%d/%d/%g" seed n radius)
      (fun () ->
        let rng = Rng.create seed in
        Generators.ensure_connected ~rng
          (Generators.random_geometric ~rng ~n ~radius))
end

(* Exact stretch while affordable, sampled above: the check runs one
   restricted Dijkstra per vertex over the KEPT subgraph, so the cost is
   ~ n · (kept + n). *)
let stretch_of ?(exact_limit = 120_000_000) g keep =
  let kept = Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep in
  let cost = Graph.n g * (kept + Graph.n g) in
  if cost <= exact_limit then Stretch.max_edge_stretch ~jobs:!jobs g keep
  else
    Stretch.sampled_edge_stretch ~jobs:!jobs ~rng:(Rng.create 12345)
      ~samples:512 g keep

let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* T1 — Table 1: very sparse spanners                                   *)
(* ------------------------------------------------------------------ *)

let table1 ~quick () =
  let sizes = if quick then [ 512; 1024 ] else [ 512; 2048; 8192 ] in
  let cols =
    [
      T.col ~align:`L ~w:34 "algorithm";
      T.col ~w:6 "n";
      T.col ~w:9 "edges";
      T.col ~w:8 "edges/n";
      T.col ~w:9 ~render:T.pretty "stretch";
      T.col ~w:10 "rounds";
      T.col ~align:`L ~w:7 "det/wgt";
    ]
  in
  let sections =
    pmap
      (fun n ->
        let gu = Gcache.gnp ~seed:42 ~n ~avg_degree:8.0 in
        let gw =
          Generators.randomize_weights ~rng:(Rng.create 7) ~lo:1 ~hi:(n * n) gu
        in
        let k = int_of_float (ceil (Float.log2 (fi n))) in
        let row name g sp det wgt =
          let size = Spanner.size sp in
          let s = stretch_of g sp.Spanner.keep in
          T.row
            ~bounds:
              [
                T.le ~id:"size<=6n" ~descr:"spanner size stays O(n)"
                  (fi size) (6.0 *. fi n);
                T.le ~id:"stretch<=3lg" ~descr:"stretch stays O(log n)" s
                  (3.0 *. Float.log2 (fi n));
              ]
            [
              ("algorithm", T.Str name);
              ("n", T.Int n);
              ("edges", T.Int size);
              ("edges/n", T.Float (fi size /. fi n));
              ("stretch", T.Float s);
              ("rounds", T.Int (Spanner.total_rounds sp));
              ( "det/wgt",
                T.Str
                  (Printf.sprintf "%s/%s"
                     (if det then "yes" else "no")
                     (if wgt then "yes" else "no")) );
            ]
        in
        let pettie =
          Linear_size.run ~variant:(Linear_size.Randomized (Rng.create 1)) gu
        in
        let en = Elkin_neiman.run ~rng:(Rng.create 2) ~k gu in
        let det_u = Linear_size.run gu in
        let det_w = Linear_size.run gw in
        T.section ~cols
          (Printf.sprintf "n%d" n)
          [
            row "[Pet10] randomized linear-size" gu pettie.Linear_size.spanner
              false false;
            row "[EN18] exp-shift spanner" gu en.Elkin_neiman.spanner false
              false;
            row "this paper: det linear (Thm 1.5)" gu det_u.Linear_size.spanner
              true false;
            row "this paper: det linear, weighted" gw det_w.Linear_size.spanner
              true true;
          ])
      sizes
  in
  T.make ~id:"t1"
    ~title:
      "T1 (Table 1): sparse/ultra-sparse spanner constructions — size O(n), \
       stretch ~ log n"
    ~params:[ ("quick", T.Bool quick) ]
    ~notes:
      [
        "shape check: edges/n flat in n for every row; the deterministic rows \
         match the randomized sizes";
        "without randomness, and weighted costs only a constant factor (the \
         paper's 2^(log* n) vs 4^(log* n)).";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T2 — Table 2: (2k-1)-spanners                                        *)
(* ------------------------------------------------------------------ *)

let table2 ~quick () =
  let n = if quick then 1024 else 2048 in
  let ks = [ 2; 3; 4; 5 ] in
  let cols =
    [
      T.col ~align:`L ~w:30 "algorithm";
      T.col ~w:3 "k";
      T.col ~w:9 "edges";
      T.col ~w:12 "edges/n^(1+1/k)";
      T.col ~w:9 ~render:T.pretty "stretch";
      T.col ~w:10 "rounds";
      T.col ~align:`L ~title:"" ~w:1 "note";
    ]
  in
  let bcols =
    [
      T.col ~align:`L ~title:"" ~w:30 "algorithm";
      T.col ~title:"" ~w:3 "k";
      T.col ~title:"" ~w:9 "edges";
      T.col ~align:`L ~title:"" ~w:12 "gk18";
    ]
  in
  let sections =
    pconcat_map
      (fun k ->
        let norm = fi n ** (1.0 +. (1.0 /. fi k)) in
        (* m must clear n^(1+1/k) by a healthy factor for compression to be
           visible at all. *)
        let avg_degree = Float.min (fi (n - 1) /. 3.0) (6.0 *. norm /. fi n) in
        let gu = Gcache.gnp ~seed:(100 + k) ~n ~avg_degree in
        let gw =
          Generators.randomize_weights ~rng:(Rng.create 8) ~lo:1 ~hi:(n * n) gu
        in
        let stretch_bound s =
          T.le ~id:"stretch<=2k-1" ~descr:"the (2k-1)-spanner guarantee" s
            (fi ((2 * k) - 1))
        in
        let fields ?note name size s rounds =
          [
            ("algorithm", T.Str name);
            ("k", T.Int k);
            ("edges", T.Int size);
            ("edges/n^(1+1/k)", T.Float (fi size /. norm));
            ("stretch", T.Float s);
            ("rounds", T.Int rounds);
            ("note", T.Str (Option.value note ~default:""));
          ]
        in
        let row ?(extra = []) name g sp =
          let s = stretch_of g sp.Spanner.keep in
          T.row
            ~bounds:(stretch_bound s :: extra)
            (fields name (Spanner.size sp) s (Spanner.total_rounds sp))
        in
        let derand_bound ~weighted size =
          T.le ~id:"size<=det-bound"
            ~descr:"Thm 1.4's analytic size bound" (fi size)
            (Bs_derand.size_bound ~n ~k ~weighted)
        in
        let bs_u = Baswana_sen.run ~rng:(Rng.create 3) ~k gu in
        let bs_w = Baswana_sen.run ~rng:(Rng.create 3) ~k gw in
        let de_u = Bs_derand.run ~k gu in
        let de_w = Bs_derand.run ~k gw in
        let bd = Bs_distributed.run ~jobs:!jobs ~seed:11 ~k gw in
        let bd_sp = bd.Bs_distributed.spanner in
        let bd_s = stretch_of gw bd_sp.Spanner.keep in
        let bd_rounds = bd.Bs_distributed.network_stats.Network.rounds in
        let bsb = Bs_derand.size_bound ~n ~k ~weighted:true in
        let gkb = norm *. fi k *. Float.log2 (fi n) in
        [
          T.section ~rule:false ~cols
            (Printf.sprintf "k%d" k)
            [
              row "[BS07] randomized, unweighted" gu bs_u.Baswana_sen.spanner;
              row "[BS07] randomized, weighted" gw bs_w.Baswana_sen.spanner;
              row
                ~extra:
                  [
                    derand_bound ~weighted:false
                      (Spanner.size de_u.Bs_derand.spanner);
                  ]
                "this paper Thm 1.4, unweighted" gu de_u.Bs_derand.spanner;
              row
                ~extra:
                  [
                    derand_bound ~weighted:true
                      (Spanner.size de_w.Bs_derand.spanner);
                  ]
                "this paper Thm 1.4, weighted" gw de_w.Bs_derand.spanner;
              T.row
                ~bounds:
                  [
                    stretch_bound bd_s;
                    T.le ~id:"rounds<=2k+3"
                      ~descr:"the O(k) CONGEST round bound" (fi bd_rounds)
                      (fi ((2 * k) + 3));
                  ]
                (fields ~note:" <- real protocol rounds"
                   "[BS07] as CONGEST program" (Spanner.size bd_sp) bd_s
                   bd_rounds);
            ];
          T.section ~cols:bcols
            (Printf.sprintf "k%d-bounds" k)
            [
              T.row
                [
                  ("algorithm", T.Str "(bounds) BS07/ours vs GK18");
                  ("k", T.Int k);
                  ("edges", T.Str (Printf.sprintf "%.0f" bsb));
                  ("gk18", T.Str (Printf.sprintf "GK18 ~ %.0f" gkb));
                  ("bs_bound", T.Float bsb);
                  ("gk18_bound", T.Float gkb);
                ];
            ];
        ])
      ks
  in
  let prose =
    T.section
      ~caption:
        [
          Printf.sprintf
            "n = %d; every row checks measured max stretch <= 2k-1 (exact \
             where affordable, sampled above)."
            n;
        ]
      ~rule:false ~cols:[] "prose" []
  in
  T.make ~id:"t2" ~title:"T2 (Table 2): (2k-1)-spanners — size vs n^(1+1/k)"
    ~params:[ ("quick", T.Bool quick); ("n", T.Int n) ]
    ~notes:
      [
        "shape check: derandomized sizes track the randomized ones (no log n \
         overhead as in [GK18]),";
        "and all stretches are exactly within 2k-1.";
      ]
    (prose :: sections)

(* ------------------------------------------------------------------ *)
(* T3 — Theorem 1.6: deterministic ultra-sparse spanners                *)
(* ------------------------------------------------------------------ *)

let table3 ~quick () =
  let n = if quick then 1024 else 4096 in
  let graphs =
    [
      ( "weighted gnp",
        Gcache.wgnp ~seed:5 ~n ~avg_degree:12.0 ~max_w:(n * n) );
      ( "weighted geometric",
        let n = n / 2 in
        Gcache.geometric ~seed:6 ~n
          ~radius:(2.0 *. sqrt (Float.log2 (fi n) /. fi n)) );
    ]
  in
  let cols =
    [
      T.col ~align:`L ~w:20 "graph";
      T.col ~w:4 "t";
      T.col ~w:9 "edges";
      T.col ~w:9 "bound";
      T.col ~w:8 "t_inner";
      T.col ~w:9 ~render:T.pretty "stretch";
      T.col ~w:11 "str/(t·lg n)";
      T.col ~w:8 "rounds";
    ]
  in
  let sections =
    List.mapi
      (fun gi (name, g) ->
        let rows =
          pmap
            (fun t ->
              let out = Ultra_sparse.run ~t g in
              let sp = out.Ultra_sparse.spanner in
              let s = stretch_of g sp.Spanner.keep in
              let bound = Ultra_sparse.bound ~n:(Graph.n g) ~t in
              T.row
                ~bounds:
                  [
                    T.le ~id:"size<=n+n/t"
                      ~descr:"Thm 1.6's deterministic size guarantee"
                      (fi (Spanner.size sp))
                      (fi bound);
                  ]
                [
                  ("graph", T.Str name);
                  ("t", T.Int t);
                  ("edges", T.Int (Spanner.size sp));
                  ("bound", T.Int bound);
                  ("t_inner", T.Int out.Ultra_sparse.t_inner);
                  ("stretch", T.Float s);
                  ( "str/(t·lg n)",
                    T.Float (s /. (fi t *. Float.log2 (fi (Graph.n g)))) );
                  ("rounds", T.Int (Spanner.total_rounds sp));
                ])
            [ 1; 2; 4; 8; 16 ]
        in
        T.section ~cols (Printf.sprintf "g%d" gi) rows)
      graphs
  in
  T.make ~id:"t3"
    ~title:"T3 (Thm 1.6): deterministic ultra-sparse spanners, n + n/t edges"
    ~params:[ ("quick", T.Bool quick); ("n", T.Int n) ]
    ~notes:
      [
        "shape check: edges <= n + n/t always (deterministic guarantee); \
         stretch grows ~ linearly in t";
        "(constant str/(t·lg n) column), the optimal tradeoff of [Elk07, \
         DGPV09].";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T4 — Lemma 4.1: stretch-friendly partitions                          *)
(* ------------------------------------------------------------------ *)

let table4 ~quick () =
  let n = if quick then 2000 else 8000 in
  let g = Gcache.wgnp ~seed:11 ~n ~avg_degree:8.0 ~max_w:100000 in
  let rbool = function T.Bool b -> string_of_bool b | v -> T.default_render v in
  let cols =
    [
      T.col ~w:4 "t";
      T.col ~w:10 "clusters";
      T.col ~w:8 "<= n/t";
      T.col ~w:8 "minsize";
      T.col ~w:8 "radius";
      T.col ~w:8 "< 3·2^i";
      T.col ~w:9 ~render:rbool "sf?";
      T.col ~w:13 "rounds";
      T.col ~w:6 "<=c·t·lg*";
    ]
  in
  let rows =
    pmap
      (fun t ->
        let p, info = Stretch_friendly.partition ~t g in
        let iters = info.Stretch_friendly.iterations in
        let sizes = Partition.sizes p in
        let clusters = Partition.count p in
        let minsize = Array.fold_left min max_int sizes in
        let radius = Partition.max_radius p in
        let radius_lim = 3 * (1 lsl max 0 iters) in
        let sf = Stretch_friendly.is_stretch_friendly g p in
        let rounds = Rounds.total info.Stretch_friendly.rounds in
        let rounds_lim = 16 * t * (Coloring.log_star (Graph.n g) + 6) in
        T.row
          ~bounds:
            [
              T.le ~id:"clusters<=n/t" (fi clusters) (fi (Graph.n g / t));
              T.ge ~id:"minsize>=t" ~descr:"every cluster has >= t vertices"
                (fi minsize) (fi t);
              T.bound ~id:"radius<3·2^i" ~descr:"Lemma 4.1's radius invariant"
                ~observed:(fi radius) ~limit:(fi radius_lim)
                (radius < radius_lim);
              T.flag ~id:"stretch-friendly"
                ~descr:"the partition is stretch-friendly" sf;
              T.le ~id:"rounds<=16t(lg*+6)" ~descr:"round accounting, O(t)"
                (fi rounds) (fi rounds_lim);
            ]
          [
            ("t", T.Int t);
            ("clusters", T.Int clusters);
            ("<= n/t", T.Int (Graph.n g / t));
            ("minsize", T.Int minsize);
            ("radius", T.Int radius);
            ("< 3·2^i", T.Int radius_lim);
            ("sf?", T.Bool sf);
            ("rounds", T.Int rounds);
            ("<=c·t·lg*", T.Int rounds_lim);
          ])
      [ 2; 4; 8; 16; 32; 64; 128 ]
  in
  let dcols =
    [
      T.col ~w:4 "t";
      T.col ~w:12 "real rounds";
      T.col ~w:8 "waves";
      T.col ~w:12 "messages";
    ]
  in
  let drows =
    pmap
      (fun t ->
        let out = Sf_distributed.partition ~t g in
        T.row
          [
            ("t", T.Int t);
            ("real rounds", T.Int out.Sf_distributed.real_rounds);
            ("waves", T.Int out.Sf_distributed.waves);
            ("messages", T.Int out.Sf_distributed.messages);
          ])
      [ 2; 8; 32; 128 ]
  in
  T.make ~id:"t4" ~title:"T4 (Lemma 4.1): stretch-friendly O(t)-partitions"
    ~params:
      [ ("quick", T.Bool quick); ("n", T.Int (Graph.n g)); ("m", T.Int (Graph.m g)) ]
    ~notes:
      [
        "";
        "shape check: every invariant of Lemma 4.1 holds; rounds linear in t.";
      ]
    [
      T.section
        ~caption:
          [
            Printf.sprintf
              "graph: weighted gnp, n=%d m=%d; bound columns from the lemma."
              (Graph.n g) (Graph.m g);
          ]
        ~rule:false ~cols "partition" rows;
      T.section
        ~caption:
          [
            "";
            "and the same algorithm with every cross-cluster exchange \
             executed as real message-passing waves";
            "(Sf_distributed; output is bit-identical, rounds are measured, \
             not charged):";
          ]
        ~rule:false ~cols:dcols "distributed" drows;
    ]

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1 / Lemma F.2: cluster growing                           *)
(* ------------------------------------------------------------------ *)

let fig1 ~quick () =
  let side = if quick then 40 else 64 in
  let graphs =
    [
      ("grid", Gcache.grid side);
      ("unweighted gnp", Gcache.gnp ~seed:13 ~n:(side * side) ~avg_degree:6.0);
    ]
  in
  let sections =
    (* One independent job per (graph, t) pair. *)
    pmap
      (fun ((name, g), t) ->
            let out = Clustering_spanner.ultra_sparse ~t g in
            let final = Spanner.size out.Clustering_spanner.spanner in
            let target = Graph.n g + (Graph.n g / t) in
            let s =
              stretch_of g out.Clustering_spanner.spanner.Spanner.keep
            in
            let cols =
              [
                T.col ~w:4 "step";
                T.col ~w:9 "active";
                T.col ~w:10 "clustered";
                T.col ~w:9 "clusters";
                T.col ~w:6 "bad";
                T.col ~w:8 "maxcut";
                T.col ~w:9 "E_inter";
                T.col ~w:7 "xi_avg";
              ]
            in
            let rows =
              List.mapi
                (fun i st ->
                  let bounds =
                    T.bound ~id:"maxcut<4t"
                      ~descr:"Lemma F.2's cutting-distance bound"
                      ~observed:(fi st.Clustering_spanner.max_cut_distance)
                      ~limit:(fi (4 * t))
                      (st.Clustering_spanner.max_cut_distance < 4 * t)
                    ::
                    (if i = 0 then
                       [
                         T.le ~id:"size<=n+n/t"
                           ~descr:"final spanner size (Thm F.1)" (fi final)
                           (fi target);
                       ]
                     else [])
                  in
                  T.row ~bounds
                    [
                      ("step", T.Int st.Clustering_spanner.step);
                      ("active", T.Int st.Clustering_spanner.active_before);
                      ("clustered", T.Int st.Clustering_spanner.clustered);
                      ("clusters", T.Int st.Clustering_spanner.clusters_formed);
                      ("bad", T.Int st.Clustering_spanner.bad_clusters);
                      ("maxcut", T.Int st.Clustering_spanner.max_cut_distance);
                      ( "E_inter",
                        T.Int st.Clustering_spanner.inter_edges_added );
                      ("xi_avg", T.Float st.Clustering_spanner.xi_avg);
                    ])
                out.Clustering_spanner.steps
            in
            T.section
              ~caption:
                [
                  "";
                  Printf.sprintf
                    "%s (n=%d), t=%d: final edges=%d (n + n/t = %d), \
                     stretch=%s"
                    name (Graph.n g) t final target (T.pretty_float s);
                ]
              ~indent:2 ~rule:(t = 4) ~cols
              (Printf.sprintf "%s-t%d"
                 (if name = "grid" then "grid" else "gnp")
                 t)
              rows)
      (List.concat_map (fun gp -> List.map (fun t -> (gp, t)) [ 2; 4 ]) graphs)
  in
  T.make ~id:"f1"
    ~title:
      "F1 (Figure 1 / Lemma F.2): cluster growing with good cutting distances"
    ~params:[ ("quick", T.Bool quick); ("side", T.Int side) ]
    ~notes:
      [
        "shape check: the active count decays geometrically (Lemma F.2's \
         7/10 factor), cutting distances";
        "stay below 4t, and inter-cluster witness edges stay near n/t.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T5 — Theorems 1.7 / F.1: spanners from clusterings                   *)
(* ------------------------------------------------------------------ *)

let table5 ~quick () =
  let side = if quick then 40 else 64 in
  let graphs =
    [
      ("grid", Gcache.grid side);
      ("torus", Gcache.torus side);
      ("unweighted gnp", Gcache.gnp ~seed:17 ~n:(side * side) ~avg_degree:8.0);
    ]
  in
  let cols =
    [
      T.col ~align:`L ~w:16 "graph";
      T.col ~align:`L ~w:22 "construction";
      T.col ~w:9 "edges";
      T.col ~w:9 "edges/n";
      T.col ~w:9 ~render:T.pretty "stretch";
      T.col ~w:9 "treediam";
      T.col ~w:8 "xi_avg";
    ]
  in
  let stretch_bound s treediam =
    T.le ~id:"stretch<=2D+1" ~descr:"stretch tracks the cluster tree diameter"
      s
      ((2.0 *. fi treediam) +. 1.0)
  in
  let sections =
    pmapi
      (fun gi (name, g) ->
        let nf = fi (Graph.n g) in
        let sparse = Clustering_spanner.sparse g in
        let xi =
          Stats.mean
            (Array.of_list
               (List.map
                  (fun s -> s.Clustering_spanner.xi_avg)
                  sparse.Clustering_spanner.steps))
        in
        let ssize = Spanner.size sparse.Clustering_spanner.spanner in
        let sstr = stretch_of g sparse.Clustering_spanner.spanner.Spanner.keep in
        let sdiam = sparse.Clustering_spanner.max_tree_diameter in
        let sparse_row =
          T.row
            ~bounds:
              [
                T.le ~id:"size<=2n" ~descr:"Thm 1.7's O(n) size" (fi ssize)
                  (2.0 *. nf);
                stretch_bound sstr sdiam;
              ]
            [
              ("graph", T.Str name);
              ("construction", T.Str "Thm 1.7 (sparse)");
              ("edges", T.Int ssize);
              ("edges/n", T.Float (fi ssize /. nf));
              ("stretch", T.Float sstr);
              ("treediam", T.Int sdiam);
              ("xi_avg", T.Float xi);
            ]
        in
        let ultra_rows =
          List.map
            (fun t ->
              let out = Clustering_spanner.ultra_sparse ~t g in
              let size = Spanner.size out.Clustering_spanner.spanner in
              let s =
                stretch_of g out.Clustering_spanner.spanner.Spanner.keep
              in
              let diam = out.Clustering_spanner.max_tree_diameter in
              T.row
                ~bounds:
                  [
                    T.le ~id:"size<=n+n/t" ~descr:"Thm F.1's size bound"
                      (fi size)
                      (nf +. (nf /. fi t));
                    stretch_bound s diam;
                  ]
                [
                  ("graph", T.Str name);
                  ("construction", T.Str (Printf.sprintf "Thm F.1 (t=%d)" t));
                  ("edges", T.Int size);
                  ("edges/n", T.Float (fi size /. nf));
                  ("stretch", T.Float s);
                  ("treediam", T.Int diam);
                ])
            [ 2; 8 ]
        in
        T.section ~cols (Printf.sprintf "g%d" gi) (sparse_row :: ultra_rows))
      graphs
  in
  T.make ~id:"t5"
    ~title:
      "T5 (Thm 1.7 / F.1): unweighted spanners from separated clusterings"
    ~params:[ ("quick", T.Bool quick); ("side", T.Int side) ]
    ~notes:
      [
        "shape check: sizes near n + n/t, stretch tracks the cluster tree \
         diameters (O(D + t)).";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T6 — Theorems G.1 / 1.9: connectivity certificates                   *)
(* ------------------------------------------------------------------ *)

let table6 ~quick () =
  let n = if quick then 150 else 300 in
  let workloads =
    [
      ( "harary+noise",
        fun k ->
          let g0 = Gcache.harary ~k:(k + 1) ~n in
          let rng = Rng.create 19 in
          let extra =
            List.init n (fun _ ->
                let a = Rng.int rng n and b = Rng.int rng n in
                if a = b then None else Some (a, b, 1))
          in
          let base =
            Array.to_list
              (Array.map (fun e -> (e.Graph.u, e.Graph.v, 1)) (Graph.edges g0))
          in
          Graph.of_edges ~n (base @ List.filter_map Fun.id extra) );
      ( "dense gnp",
        fun k -> Gcache.gnp ~seed:(23 + k) ~n ~avg_degree:(fi (4 * k) +. 8.0) );
    ]
  in
  let cols =
    [
      T.col ~align:`L ~w:18 "graph";
      T.col ~w:3 "k";
      T.col ~w:5 "eps";
      T.col ~w:9 "algorithm";
      T.col ~w:9 "edges";
      T.col ~w:10 "edges/(kn)";
      T.col ~w:10 "lam G->H";
      T.col ~w:9 "rounds";
    ]
  in
  let ks = if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
  let sections =
    (* One independent job per (workload, k) pair. *)
    pmap
      (fun ((wname, mk), k) ->
            let g = mk k in
            let eps = 0.5 in
            let row ?size_limit name (c : Certificate.t) =
              let lg, lh = Certificate.preserved_connectivity g c in
              let size = Certificate.size c in
              let bounds =
                T.flag ~id:"connectivity"
                  ~descr:"lam(H) >= min(k, lam(G)) — Thm G.1"
                  (lh >= min k lg)
                ::
                (match size_limit with
                | Some (bid, lim) -> [ T.le ~id:bid (fi size) lim ]
                | None -> [])
              in
              T.row ~bounds
                [
                  ("graph", T.Str wname);
                  ("k", T.Int k);
                  ("eps", T.Float eps);
                  ("algorithm", T.Str name);
                  ("edges", T.Int size);
                  ("edges/(kn)", T.Float (fi size /. fi (k * Graph.n g)));
                  ("lam G->H", T.Str (Printf.sprintf "%d->%d" lg lh));
                  ("lam_g", T.Int lg);
                  ("lam_h", T.Int lh);
                  ("rounds", T.Int (Rounds.total c.Certificate.rounds));
                ]
            in
            let kn = fi (k * Graph.n g) in
            let ks =
              Karger_split.run ~c:0.2 ~rng:(Rng.create 29) ~k ~epsilon:0.45 g
            in
            T.section ~cols
              (Printf.sprintf "%s-k%d"
                 (if wname = "harary+noise" then "harary" else "gnp")
                 k)
              [
                row ~size_limit:("size<=kn", kn) "NI"
                  (Nagamochi_ibaraki.certificate ~k g);
                row ~size_limit:("size<=kn", kn) "Thurimella"
                  (Thurimella.certificate ~k g);
                row
                  ~size_limit:("size<=(1+eps)kn", (1.0 +. eps) *. kn)
                  "SpanPack"
                  (Spanner_packing.run ~k ~epsilon:eps g)
                    .Spanner_packing.certificate;
                row
                  (Printf.sprintf "Karger/%d" ks.Karger_split.groups)
                  ks.Karger_split.certificate;
              ])
      (List.concat_map (fun w -> List.map (fun k -> (w, k)) ks) workloads)
  in
  T.make ~id:"t6"
    ~title:"T6 (Thm G.1 / Thm 1.9): sparse connectivity certificates"
    ~params:[ ("quick", T.Bool quick); ("n", T.Int n) ]
    ~notes:
      [
        "shape check: all certificates preserve connectivity exactly (lam \
         G->H equal up to the k cap);";
        "spanner packing sizes ~ (1+eps)kn vs Thurimella's k(n-1); Karger \
         splitting keeps polylog rounds as k grows.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* A1 — ablation: derandomization vs random sampling                    *)
(* ------------------------------------------------------------------ *)

let ablation_derand ~quick () =
  let n = if quick then 512 else 2048 in
  let seeds = 8 in
  let cols =
    [
      T.col ~w:3 "k";
      T.col ~w:10 ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v)) "derand";
      T.col ~w:12 ~render:(fun v -> Printf.sprintf "%.1f" (T.to_float v)) "rand(mean)";
      T.col ~w:12 ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v)) "rand(min)";
      T.col ~w:12 ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v)) "rand(max)";
      T.col ~w:12 ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v)) "det.bound";
    ]
  in
  let rows =
    pmap
      (fun k ->
        let g =
          Gcache.wgnp ~seed:(31 + k) ~n
            ~avg_degree:
              (Float.min (fi (n - 1) /. 2.0) (3.0 *. (fi n ** (1.0 /. fi k))))
            ~max_w:(n * n)
        in
        let de = fi (Spanner.size (Bs_derand.run ~k g).Bs_derand.spanner) in
        (* Independent seeded trials: each derives its RNG from its index,
           so the fan-out over domains leaves every size unchanged. *)
        let sizes =
          Parallel.map_array ~jobs:!jobs seeds (fun i ->
              fi
                (Spanner.size
                   (Baswana_sen.run ~rng:(Rng.create (500 + i)) ~k g)
                     .Baswana_sen.spanner))
        in
        let lo, hi = Stats.min_max sizes in
        let bnd = Bs_derand.size_bound ~n ~k ~weighted:true in
        T.row
          ~bounds:
            [
              T.le ~id:"derand<=det-bound"
                ~descr:"the deterministic size is under the analytic bound" de
                bnd;
            ]
          [
            ("k", T.Int k);
            ("derand", T.Float de);
            ("rand(mean)", T.Float (Stats.mean sizes));
            ("rand(min)", T.Float lo);
            ("rand(max)", T.Float hi);
            ("det.bound", T.Float bnd);
          ])
      [ 2; 3; 4; 5 ]
  in
  T.make ~id:"a1"
    ~title:
      "A1 (ablation): conditional expectation vs independent sampling, same \
       graphs"
    ~params:[ ("quick", T.Bool quick); ("n", T.Int n); ("seeds", T.Int seeds) ]
    ~notes:
      [
        "";
        "shape check: the derandomized size is a deterministic point inside \
         (or near) the randomized";
        "distribution and always under the analytic bound — matching BS07's \
         tradeoff without randomness.";
      ]
    [ T.section ~rule:false ~cols "sizes" rows ]

(* ------------------------------------------------------------------ *)
(* A2 — ablation: matched merging vs naive star merging                 *)
(* ------------------------------------------------------------------ *)

let ablation_merge ~quick () =
  let scale = if quick then 1 else 2 in
  let graphs =
    [
      ("caterpillar", Generators.caterpillar (200 * scale) 4);
      ("path", Generators.path (1000 * scale));
      ( "weighted geometric",
        Gcache.geometric ~seed:37 ~n:(800 * scale) ~radius:0.06 );
    ]
  in
  let cols =
    [
      T.col ~align:`L ~w:20 "graph";
      T.col ~w:4 "t";
      T.col ~w:14 "radius(match)";
      T.col ~w:14 "radius(naive)";
      T.col ~w:12 "clu(match)";
      T.col ~w:12 "clu(naive)";
    ]
  in
  let sections =
    pmapi
      (fun gi (name, g) ->
        let rows =
          List.map
            (fun t ->
              let p1, _ = Stretch_friendly.partition ~t g in
              let p2, _ =
                Stretch_friendly.partition_with_strategy
                  ~strategy:Stretch_friendly.Naive_star ~t g
              in
              T.row
                ~bounds:
                  [
                    T.le ~id:"radius(match)<=2t"
                      ~descr:"matched merging keeps the radius O(t)"
                      (fi (Partition.max_radius p1))
                      (fi (2 * t));
                  ]
                [
                  ("graph", T.Str name);
                  ("t", T.Int t);
                  ("radius(match)", T.Int (Partition.max_radius p1));
                  ("radius(naive)", T.Int (Partition.max_radius p2));
                  ("clu(match)", T.Int (Partition.count p1));
                  ("clu(naive)", T.Int (Partition.count p2));
                ])
            [ 8; 32 ]
        in
        T.section ~cols (Printf.sprintf "g%d" gi) rows)
      graphs
  in
  T.make ~id:"a2"
    ~title:"A2 (ablation): Lemma 4.1 matched merging vs naive star merging"
    ~params:[ ("quick", T.Bool quick); ("scale", T.Int scale) ]
    ~notes:
      [
        "shape check: the matching step is what keeps the radius O(t); naive \
         star merges can chain and inflate it.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T7 — Theorem 1.8: work-efficient weighted ultra-sparse spanners      *)
(* ------------------------------------------------------------------ *)

let table7 ~quick () =
  let n = if quick then 512 else 2048 in
  let g = Gcache.wgnp ~seed:41 ~n ~avg_degree:10.0 ~max_w:(n * 4) in
  let cols =
    [
      T.col ~align:`L ~w:40 "pipeline";
      T.col ~w:4 "t";
      T.col ~w:9 "edges";
      T.col ~w:9 "bound";
      T.col ~w:9 ~render:T.pretty "stretch";
      T.col ~w:10 "rounds";
    ]
  in
  (* Thm 1.8's sparse step: folklore weight classes over the Thm 1.7
     clustering spanner.  Thm 1.6's sparse step: derandomized linear size
     (heavier local computation, better stretch). *)
  let sparse_1_8 = Clustering_spanner.sparse_weighted ~epsilon:0.5 in
  let sections =
    pmap
      (fun t ->
        let a = Ultra_sparse.run ~t g in
        let b = Ultra_sparse.run ~sparse:sparse_1_8 ~t g in
        let row name (out : Ultra_sparse.outcome) =
          let sp = out.Ultra_sparse.spanner in
          let bound = Ultra_sparse.bound ~n:(Graph.n g) ~t in
          T.row
            ~bounds:
              [
                T.le ~id:"size<=n+n/t" ~descr:"the n + n/t size bound"
                  (fi (Spanner.size sp))
                  (fi bound);
              ]
            [
              ("pipeline", T.Str name);
              ("t", T.Int t);
              ("edges", T.Int (Spanner.size sp));
              ("bound", T.Int bound);
              ("stretch", T.Float (stretch_of g sp.Spanner.keep));
              ("rounds", T.Int (Spanner.total_rounds sp));
            ]
        in
        T.section ~cols
          (Printf.sprintf "t%d" t)
          [
            row "Thm 1.6 (derandomized BS inside)" a;
            row "Thm 1.8 (clustering + weight classes)" b;
          ])
      [ 2; 8 ]
  in
  (* PRAM ledger of the Thm 1.7 engine (the work-efficiency claim). *)
  let cl = Clustering_spanner.sparse (Graph.with_unit_weights g) in
  let w = Pram.work cl.Clustering_spanner.pram in
  let d = Pram.depth cl.Clustering_spanner.pram in
  let lg = Float.log2 (fi (Graph.n g)) in
  let x_work = fi w /. (fi (Graph.m g) *. lg) in
  let x_depth = fi d /. (lg *. lg) in
  let pram =
    T.section
      ~caption:[ "PRAM ledger of the Thm 1.7 engine:" ]
      ~rule:false
      ~cols:
        [
          T.col ~w:9 "work";
          T.col ~w:9 ~render:(fun v -> Printf.sprintf "%.1f" (T.to_float v))
            "x m·lg n";
          T.col ~w:9 "depth";
          T.col ~w:9 ~render:(fun v -> Printf.sprintf "%.1f" (T.to_float v))
            "x lg^2 n";
        ]
      "pram"
      [
        T.row
          ~bounds:
            [
              T.le ~id:"work<=4mlgn" ~descr:"work-efficiency: O(m log n) work"
                (fi w)
                (4.0 *. fi (Graph.m g) *. lg);
              T.le ~id:"depth<=4lg2n" ~descr:"polylog depth" (fi d)
                (4.0 *. lg *. lg);
            ]
          [
            ("work", T.Int w);
            ("x m·lg n", T.Float x_work);
            ("depth", T.Int d);
            ("x lg^2 n", T.Float x_depth);
          ];
      ]
  in
  T.make ~id:"t7"
    ~title:
      "T7 (Thm 1.8): work-efficient weighted ultra-sparse spanners — weight \
       classes + Thm 1.7 + Thm 1.2"
    ~params:
      [
        ("quick", T.Bool quick);
        ("n", T.Int (Graph.n g));
        ("m", T.Int (Graph.m g));
        ("max_aspect", T.Int (4 * n));
      ]
    ~notes:
      [
        "shape check: both meet the n + n/t size bound; Thm 1.8 trades a \
         log(U)-flavoured stretch factor for";
        "work-efficiency (m·polylog work, polylog depth — the ledger above), \
         as in the paper.";
      ]
    ((match sections with
     | first :: rest ->
         {
           first with
           T.caption =
             [
               Printf.sprintf
                 "graph: weighted gnp n=%d m=%d, aspect ratio U <= %d"
                 (Graph.n g) (Graph.m g) (4 * n);
             ];
         }
         :: rest
     | [] -> [])
    @ [ pram ])

(* ------------------------------------------------------------------ *)
(* T8 — native CONGEST protocols: real measured rounds                  *)
(* ------------------------------------------------------------------ *)

let table8 ~quick () =
  let sizes = if quick then [ 256; 1024 ] else [ 256; 1024; 4096 ] in
  let cols =
    [
      T.col ~align:`L ~w:28 "protocol";
      T.col ~w:6 "n";
      T.col ~w:8 "rounds";
      T.col ~w:10 "messages";
      T.col ~w:10 ~title:"max words" "max_words";
      T.col ~w:12 "notes";
    ]
  in
  let sections =
    pmap
      (fun n ->
        let g = Gcache.gnp ~seed:43 ~n ~avg_degree:8.0 in
        let gw =
          Generators.randomize_weights ~rng:(Rng.create 2) ~lo:1 ~hi:1000 g
        in
        let ecc = Bfs.eccentricity g 0 in
        (* broadcast-max converges relative to the holder of the maximum
           value (node n-1 here), not the BFS root *)
        let ecc_max = Bfs.eccentricity g (n - 1) in
        let lgn = Float.log2 (fi n) in
        let row ?(bounds = []) name (st : Network.stats) notes =
          T.row ~bounds
            [
              ("protocol", T.Str name);
              ("n", T.Int n);
              ("rounds", T.Int st.Network.rounds);
              ("messages", T.Int st.Network.messages);
              ("max_words", T.Int st.Network.max_words);
              ("notes", T.Str notes);
            ]
        in
        let bj = !jobs in
        let bfs_res, s1 = Programs.bfs ~jobs:bj g ~root:0 in
        let _, s2 =
          Programs.broadcast_max ~jobs:bj g ~values:(Array.init n Fun.id)
        in
        let _, s3 = Programs.maximal_matching ~jobs:bj g in
        let _, s4 = Programs.luby_mis ~jobs:bj ~seed:5 g in
        let _, s5 = Programs.bellman_ford ~jobs:bj gw ~source:0 in
        let forest, s6 = Programs.spanning_forest ~jobs:bj g in
        let bs_rows =
          List.map
            (fun k ->
              let out = Bs_distributed.run ~jobs:bj ~seed:7 ~k gw in
              let st = out.Bs_distributed.network_stats in
              row
                ~bounds:
                  [
                    T.le ~id:"rounds<=2k+3" ~descr:"the O(k) CONGEST bound"
                      (fi st.Network.rounds)
                      (fi ((2 * k) + 3));
                    T.le ~id:"words<=2" ~descr:"2-word messages"
                      (fi st.Network.max_words) 2.0;
                  ]
                (Printf.sprintf "Baswana-Sen (k=%d)" k)
                st
                (Printf.sprintf "%d edges"
                   (Spanner.size out.Bs_distributed.spanner)))
            [ 2; 4 ]
        in
        T.section ~cols
          (Printf.sprintf "n%d" n)
          ([
             row
               ~bounds:
                 [ T.le ~id:"rounds<=ecc+2" (fi s1.Network.rounds) (fi (ecc + 2)) ]
               "BFS tree" s1
               (Printf.sprintf "depth %d"
                  (Array.fold_left max 0 bfs_res.Programs.dist));
             row
               ~bounds:
                 [
                   T.le ~id:"rounds<=ecc(argmax)+2" (fi s2.Network.rounds)
                     (fi (ecc_max + 2));
                 ]
               "broadcast max" s2 "";
             row
               ~bounds:
                 [ T.le ~id:"rounds<=6lgn" (fi s3.Network.rounds) (6.0 *. lgn) ]
               "maximal matching" s3 "";
             row
               ~bounds:
                 [ T.le ~id:"rounds<=4lgn" (fi s4.Network.rounds) (4.0 *. lgn) ]
               "Luby MIS" s4
               (Printf.sprintf "%d phases" (s4.Network.rounds / 3));
             row "Bellman-Ford SSSP" s5 "";
             row
               ~bounds:
                 [ T.le ~id:"rounds<=ecc+3" (fi s6.Network.rounds) (fi (ecc + 3)) ]
               "spanning forest" s6
               (Printf.sprintf "%d edges" (List.length forest));
           ]
          @ bs_rows))
      sizes
  in
  T.make ~id:"t8"
    ~title:
      "T8: native message-passing protocols on the enforcing simulator (REAL \
       rounds, not accounting)"
    ~params:[ ("quick", T.Bool quick) ]
    ~notes:
      [
        "shape check: BFS/broadcast ~ diameter; matching/MIS ~ log n; \
         Baswana-Sen exactly 2k + 1 rounds";
        "with 2-word messages — the O(k) CONGEST bound, executed rather than \
         asserted.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* T9 — scalability sweep                                               *)
(* ------------------------------------------------------------------ *)

let table9 ~quick () =
  let sizes = if quick then [ 4096; 16384 ] else [ 4096; 16384; 65536 ] in
  let cols =
    [
      T.col ~w:8 "n";
      T.col ~w:9 "m";
      T.col ~w:9 "edges";
      T.col ~w:9 "bound";
      T.col ~w:9 ~title:"stretch*" ~render:T.pretty "stretch";
      T.col ~w:10 "rounds";
      T.col ~w:12 ~title:"wall (s)" "wall";
      T.col ~w:9 ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v))
        "edges/s";
    ]
  in
  let rows =
    List.map
      (fun n ->
        let rng = Rng.create 47 in
        let g =
          Generators.weighted_connected_gnp ~rng ~n ~avg_degree:8.0
            ~max_w:100000
        in
        let t0 = Unix.gettimeofday () in
        let out = Ultra_sparse.run ~t:4 g in
        let dt = Unix.gettimeofday () -. t0 in
        let sp = out.Ultra_sparse.spanner in
        let s =
          Stretch.sampled_edge_stretch ~rng:(Rng.create 1) ~samples:128 g
            sp.Spanner.keep
        in
        let bound = Ultra_sparse.bound ~n ~t:4 in
        T.row
          ~bounds:
            [
              T.le ~id:"size<=n+n/4" ~descr:"the n + n/4 bound at every scale"
                (fi (Spanner.size sp))
                (fi bound);
            ]
          [
            ("n", T.Int n);
            ("m", T.Int (Graph.m g));
            ("edges", T.Int (Spanner.size sp));
            ("bound", T.Int bound);
            ("stretch", T.Float s);
            ("rounds", T.Int (Spanner.total_rounds sp));
            ("wall", T.Time dt);
            ("edges/s", T.Time (fi (Graph.m g) /. dt));
          ])
      sizes
  in
  T.make ~id:"t9"
    ~title:
      "T9: scalability — deterministic ultra-sparse spanner wall-clock as n \
       grows"
    ~params:[ ("quick", T.Bool quick) ]
    ~notes:
      [
        "(*) stretch sampled over 128 source vertices at this scale.";
        "shape check: near-linear wall-clock in m; the n + n/4 bound holds at \
         every scale.";
      ]
    [ T.section ~rule:false ~cols "scaling" rows ]

(* ------------------------------------------------------------------ *)
(* R1 — resilience: certificates, spanners and protocols under faults  *)
(* ------------------------------------------------------------------ *)

let table_r1 ~quick () =
  (* --- certificates on an exactly k-edge-connected family --- *)
  let cn = if quick then 48 else 96 in
  let budget = if quick then 400 else 1500 in
  let ccols =
    [
      T.col ~align:`L ~w:12 "algorithm";
      T.col ~w:3 "k";
      T.col ~w:9 "edges";
      T.col ~w:9 "trials";
      T.col ~w:12 "mode";
      T.col ~w:11 "violations";
    ]
  in
  let cert_sections =
    pmapi
      (fun i k ->
        let g = Gcache.harary ~k ~n:cn in
        let row name (c : Certificate.t) =
          let r =
            Resilience.check_certificate ~rng:(Rng.create 101) ~budget g c
          in
          T.row
            ~bounds:
              [
                T.flag ~id:"zero-violations"
                  ~descr:"H - F has the components of G - F for |F| <= k-1"
                  (r.Resilience.violations = 0);
              ]
            [
              ("algorithm", T.Str name);
              ("k", T.Int k);
              ("edges", T.Int (Certificate.size c));
              ("trials", T.Int r.Resilience.trials);
              ( "mode",
                T.Str (if r.Resilience.exhaustive then "exhaustive" else "sampled")
              );
              ("violations", T.Int r.Resilience.violations);
            ]
        in
        let caption =
          if i = 0 then
            [
              Printf.sprintf
                "certificates on Harary H_{k,%d} (lambda = k exactly): H - F \
                 must have the components of G - F"
                cn;
              "for every failure set |F| <= k-1 (the paper's guarantee, \
               Appendix G).";
            ]
          else []
        in
        T.section ~caption ~cols:ccols
          (Printf.sprintf "cert-k%d" k)
          [
            row "NI" (Nagamochi_ibaraki.certificate ~k g);
            row "Thurimella" (Thurimella.certificate ~k g);
            row "SpanPack"
              (Spanner_packing.run ~k ~epsilon:0.5 g).Spanner_packing.certificate;
            row "kECSS" (Kecss.approximate ~k g).Kecss.certificate;
          ])
      (if quick then [ 2; 3 ] else [ 2; 3; 4; 6 ])
  in
  (* --- spanner stretch degradation --- *)
  let sn = if quick then 192 else 384 in
  let trials = if quick then 12 else 24 in
  let g = Gcache.gnp ~seed:53 ~n:sn ~avg_degree:6.0 in
  let scols =
    [
      T.col ~align:`L ~w:22 "spanner";
      T.col ~w:4 "|F|";
      T.col ~w:9 ~render:T.pretty "baseline";
      T.col ~w:9 ~render:T.pretty "worst";
      T.col ~w:8 ~render:T.pretty "mean";
      T.col ~w:13 "disconnected";
    ]
  in
  let spanners =
    [
      ( "BS07 k=3",
        (Baswana_sen.run ~rng:(Rng.create 3) ~k:3 g).Baswana_sen.spanner );
      ("stretch-friendly t=4", (Ultra_sparse.run ~t:4 g).Ultra_sparse.spanner);
      ("full graph", Spanner.of_eids g (List.init (Graph.m g) Fun.id));
    ]
  in
  let span_sections =
    pmapi
      (fun i (name, sp) ->
        let rows =
          List.map
            (fun failures ->
              let r =
                Resilience.check_spanner ~rng:(Rng.create 7) ~trials ~failures
                  g sp.Spanner.keep
              in
              let bounds =
                if name = "full graph" then
                  [
                    T.flag ~id:"full-graph-exact"
                      ~descr:"the full graph degrades to stretch 1.0 exactly"
                      (r.Resilience.worst_stretch <= 1.0 +. 1e-9
                      && r.Resilience.disconnected = 0);
                  ]
                else []
              in
              T.row ~bounds
                [
                  ("spanner", T.Str name);
                  ("|F|", T.Int failures);
                  ("baseline", T.Float r.Resilience.baseline);
                  ("worst", T.Float r.Resilience.worst_stretch);
                  ("mean", T.Float r.Resilience.mean_stretch);
                  ( "disconnected",
                    T.Str
                      (Printf.sprintf "%d/%d" r.Resilience.disconnected
                         r.Resilience.span_trials) );
                ])
            [ 1; 3 ]
        in
        let caption =
          if i = 0 then
            [
              "";
              Printf.sprintf
                "spanner stretch degradation (gnp n=%d, m=%d): exact stretch \
                 of H - F w.r.t. G - F over %d"
                (Graph.n g) (Graph.m g) trials;
              "sampled deletion sets (spanners promise nothing under failures \
               — this measures the damage).";
            ]
          else []
        in
        T.section ~caption ~cols:scols (Printf.sprintf "span%d" i) rows)
      spanners
  in
  (* --- native protocols under injected faults --- *)
  let bn = if quick then 256 else 1024 in
  let g = Gcache.gnp ~seed:59 ~n:bn ~avg_degree:8.0 in
  let plans =
    [
      ("no faults", Faults.empty);
      ("drop 10%", Faults.with_drops ~seed:71 0.10 Faults.empty);
      ("drop 30%", Faults.with_drops ~seed:71 0.30 Faults.empty);
      ( "8 crashes by round 3",
        Faults.random_crashes ~rng:(Rng.create 73) ~n:bn ~within:3 ~count:8
          Faults.empty );
      ( "48 links cut + drop 5%",
        Faults.random_link_failures ~rng:(Rng.create 79) g ~within:4 ~count:48
          (Faults.with_drops ~seed:83 0.05 Faults.empty) );
    ]
  in
  let fcols =
    [
      T.col ~align:`L ~w:26 ~title:"fault plan" "plan";
      T.col ~w:9 "reached";
      T.col ~w:8 "rounds";
      T.col ~w:10 "messages";
      T.col ~w:8 "drops";
      T.col ~w:9 "crashes";
      T.col ~w:8 "severed";
    ]
  in
  let fault_rows =
    pmap
      (fun (name, plan) ->
        let result, stats =
          Programs.bfs ~faults:(Faults.make plan) ~jobs:!jobs g ~root:0
        in
        let reached =
          Array.fold_left
            (fun a d -> if d >= 0 then a + 1 else a)
            0 result.Programs.dist
        in
        let bounds =
          if name = "no faults" then
            [
              T.flag ~id:"all-reached"
                ~descr:"without faults the flood reaches every vertex"
                (reached = bn);
            ]
          else []
        in
        T.row ~bounds
          [
            ("plan", T.Str name);
            ("reached", T.Str (Printf.sprintf "%d/%d" reached bn));
            ("reached_n", T.Int reached);
            ("rounds", T.Int stats.Network.rounds);
            ("messages", T.Int stats.Network.messages);
            ("drops", T.Int stats.Network.drops);
            ("crashes", T.Int stats.Network.crashed_nodes);
            ("severed", T.Int stats.Network.severed_links);
          ])
      plans
  in
  (* determinism: the same (seed, plan) replays bit-for-bit *)
  let replay plan =
    let f = Faults.make plan in
    let result, stats = Programs.bfs ~faults:f ~jobs:!jobs g ~root:0 in
    (result, stats, Faults.events f)
  in
  let plan =
    Faults.random_crashes ~rng:(Rng.create 73) ~n:bn ~within:3 ~count:8
      (Faults.with_drops ~seed:71 0.30 Faults.empty)
  in
  let identical = replay plan = replay plan in
  let replay_section =
    T.section ~caption:[ "" ]
      ~cols:[ T.col ~align:`L ~title:"" ~w:1 "replay" ]
      ~rule:false "replay"
      [
        T.row
          ~bounds:
            [
              T.flag ~id:"replay-deterministic"
                ~descr:"the same (seed, plan) replays bit-for-bit" identical;
            ]
          [
            ( "replay",
              T.Str
                (Printf.sprintf
                   "replay determinism (same seed + plan, fresh injector): %s"
                   (if identical then
                      "states, stats and event logs identical"
                    else "MISMATCH")) );
          ];
      ]
  in
  T.make ~id:"r1"
    ~title:
      "R1: resilience — certificates under |F| <= k-1 edge failures, spanner \
       stretch degradation,\n\
       and native protocols on the fault-injecting simulator"
    ~params:[ ("quick", T.Bool quick) ]
    ~notes:
      [
        "shape check: zero certificate violations at every k (exhaustive \
         where the set count fits);";
        "the full graph degrades to stretch 1.0 exactly while sparse \
         spanners stretch or disconnect;";
        "fault runs replay deterministically.";
      ]
    (cert_sections @ span_sections
    @ [
        T.section
          ~caption:
            [
              "";
              Printf.sprintf
                "BFS flood under seeded fault schedules (gnp n=%d): reached = \
                 vertices with a BFS distance."
                bn;
            ]
          ~cols:fcols ~rule:false "faults" fault_rows;
        replay_section;
      ])

(* ------------------------------------------------------------------ *)
(* O1 — observability: convergence traces on the real simulator         *)
(* ------------------------------------------------------------------ *)

(* Min-id flooding on a (possibly disconnected) peeled subgraph settles in
   at most max over components of ecc(min vertex of the component) rounds,
   plus O(1) for the final quiet round and halting handshake. *)
let forest_round_bound sub =
  let comp_of, ncomp = Connectivity.components sub in
  let minv = Array.make (max 1 ncomp) max_int in
  Array.iteri (fun v c -> if v < minv.(c) then minv.(c) <- v) comp_of;
  let sources =
    Array.of_seq
      (Seq.filter (fun mv -> mv < max_int) (Array.to_seq minv))
  in
  (* The peeled subgraphs are unit-weighted, so the multi-source Dijkstra
     rows equal BFS levels; unreachable entries are [Dijkstra.infinity]
     and must be skipped (BFS marked them -1, which never won the max). *)
  let rows = Apsp.multi_source ~jobs:!jobs sub sources in
  let b = ref 0 in
  Array.iter
    (Array.iter (fun d -> if d <> Dijkstra.infinity && d > !b then b := d))
    rows;
  !b + 3

let conv_section ?(bounds = []) ?(caption = []) sid tr =
  let cols =
    [
      T.col ~w:6 "round";
      T.col ~w:9 "active";
      T.col ~w:9 "messages";
      T.col ~w:8 "words";
      T.col ~w:8 "halted";
    ]
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i x ->
           T.row
             ~bounds:(if i = 0 then bounds else [])
             [
               ("round", T.Int x.Trace.round);
               ("active", T.Int x.Trace.active);
               ("messages", T.Int x.Trace.delivered);
               ("words", T.Int x.Trace.words);
               ("halted", T.Int x.Trace.halted);
             ])
         (Trace.rounds tr))
  in
  T.section ~caption ~elide:10 ~indent:2 ~rule:false ~cols sid rows

let table_o1 ~quick () =
  let n = if quick then 256 else 1024 in
  let profile = Profile.create () in
  let g = Gcache.gnp ~seed:61 ~n ~avg_degree:8.0 in
  let gw = Generators.randomize_weights ~rng:(Rng.create 3) ~lo:1 ~hi:1000 g in
  let ecc = Bfs.eccentricity g 0 in
  (* BFS flood *)
  let trb = Trace.create g in
  let _, s =
    Profile.time profile "bfs" (fun () ->
        Programs.bfs ~trace:trb ~jobs:!jobs g ~root:0)
  in
  let bfs_ok = s.Network.rounds <= ecc + 2 in
  let bfs_section =
    conv_section
      ~bounds:
        [
          T.le ~id:"bfs-rounds<=ecc+2" ~descr:"BFS settles within ecc+2 rounds"
            (fi s.Network.rounds)
            (fi (ecc + 2));
        ]
      ~caption:
        [
          "";
          Printf.sprintf
            "BFS flood (gnp n=%d, ecc(root)=%d): %d rounds, %d messages — \
             bound ecc+2: %s"
            n ecc s.Network.rounds s.Network.messages
            (if bfs_ok then "OK" else "VIOLATION");
        ]
      "bfs-conv" trb
  in
  (* distributed Baswana-Sen *)
  let k = 3 in
  let trs = Trace.create gw in
  let out =
    Profile.time profile "baswana-sen" (fun () ->
        Bs_distributed.run ~trace:trs ~jobs:!jobs ~seed:7 ~k gw)
  in
  let sb = out.Bs_distributed.network_stats in
  let bs_ok = sb.Network.rounds <= (2 * k) + 3 in
  let bs_section =
    conv_section
      ~bounds:
        [
          T.le ~id:"bs-rounds<=2k+3" ~descr:"distributed BS stays O(k)"
            (fi sb.Network.rounds)
            (fi ((2 * k) + 3));
        ]
      ~caption:
        [
          "";
          Printf.sprintf
            "distributed Baswana-Sen (k=%d, weighted): %d rounds, %d messages \
             — bound 2k+3 = %d: %s"
            k sb.Network.rounds sb.Network.messages
            ((2 * k) + 3)
            (if bs_ok then "OK" else "VIOLATION");
        ]
      "bs-conv" trs
  in
  (* Thurimella certificate substrate: k spanning-forest peels *)
  let kf = 3 in
  let fcols =
    [
      T.col ~w:6 "forest";
      T.col ~w:9 "edges";
      T.col ~w:9 "rounds";
      T.col ~w:9 "bound";
      T.col ~w:9 "messages";
      T.col ~align:`L ~title:"" ~w:2 "ok";
    ]
  in
  let removed = Array.make (Graph.m g) false in
  let first_trace = ref None in
  let forest_rows = ref [] in
  (try
     for i = 1 to kf do
       let keep = Array.map not removed in
       let sub, mapping = Graph.sub_with_mapping g keep in
       let tr = Trace.create sub in
       let eids, sf =
         Profile.time profile "thurimella-forests" (fun () ->
             Programs.spanning_forest ~trace:tr ~jobs:!jobs sub)
       in
       if !first_trace = None then first_trace := Some tr;
       let bound = forest_round_bound sub in
       let okr = sf.Network.rounds <= bound in
       forest_rows :=
         T.row
           ~bounds:
             [
               T.le ~id:"forest-rounds<=ecc+3"
                 ~descr:"each peel settles within its component eccentricity"
                 (fi sf.Network.rounds) (fi bound);
             ]
           [
             ("forest", T.Int i);
             ("edges", T.Int (List.length eids));
             ("rounds", T.Int sf.Network.rounds);
             ("bound", T.Int bound);
             ("messages", T.Int sf.Network.messages);
             ("ok", T.Str (if okr then "OK" else "VIOLATION"));
           ]
         :: !forest_rows;
       List.iter (fun eid -> removed.(mapping.(eid)) <- true) eids;
       if eids = [] then raise Exit
     done
   with Exit -> ());
  let forest_section =
    T.section
      ~caption:
        [
          "";
          Printf.sprintf
            "Thurimella substrate (k=%d): min-id forest peeling; each forest \
             settles within the"
            kf;
          "component-eccentricity bound of its remaining subgraph.";
        ]
      ~indent:2 ~rule:false ~cols:fcols "forests" (List.rev !forest_rows)
  in
  let first_conv =
    match !first_trace with
    | Some tr ->
        [
          conv_section ~caption:[ "first forest convergence:" ] "forest-conv"
            tr;
        ]
    | None -> []
  in
  (* congestion digest: deterministic percentiles from the Trace sink *)
  let digest_lines =
    let raw =
      String.split_on_char '\n'
        (Format.asprintf "%a" (Trace.pp_summary ~top:5) trb)
    in
    let rec drop_trailing = function
      | "" :: rest -> drop_trailing rest
      | l -> l
    in
    List.rev (drop_trailing (List.rev raw))
  in
  let digest_section =
    T.section
      ~caption:
        (("" :: "BFS congestion digest (Stats percentiles, top edges):" :: digest_lines))
      ~rule:false ~cols:[] "digest" []
  in
  (* wall-clock ledger: Time-typed rows so diffs band them *)
  let prof_cols =
    [
      T.col ~align:`L ~w:32 "phase";
      T.col ~w:8 ~render:(fun v -> Printf.sprintf "%.3f" (T.to_float v))
        "seconds";
      T.col ~w:6 "calls";
    ]
  in
  let prof_rows =
    T.row
      [ ("phase", T.Str "total"); ("seconds", T.Time (Profile.total profile)) ]
    :: List.map
         (fun (name, secs, calls) ->
           T.row
             [
               ("phase", T.Str name);
               ("seconds", T.Time secs);
               ("calls", T.Int calls);
             ])
         (Profile.phases profile)
  in
  let prof_section =
    T.section
      ~caption:[ ""; "wall-clock phases:" ]
      ~rule:false ~cols:prof_cols "profile" prof_rows
  in
  T.make ~id:"o1"
    ~title:
      "O1: convergence traces — per-round messages / active nodes from the \
       Trace sink,\n\
       checked against the round bounds (BFS ~ ecc, distributed BS ~ 2k+O(1), \
       forest peeling ~ ecc)"
    ~params:[ ("quick", T.Bool quick); ("n", T.Int n) ]
    ~notes:
      [
        "";
        "shape check: every traced protocol meets its round bound; per-round \
         message sums match";
        "Network.stats (enforced by the test-suite); traces export via \
         `ultraspan trace`.";
      ]
    ([ bfs_section; bs_section; forest_section ]
    @ first_conv
    @ [ digest_section; prof_section ])

(* ------------------------------------------------------------------ *)
(* O2 — efficiency metrics from the unified metrics plane               *)
(* ------------------------------------------------------------------ *)

(* Every row is read out of a fresh Metrics registry attached to exactly
   one instrumented run, so the table doubles as an end-to-end exercise of
   the metrics plane: the engine section checks Fast and Ref agree on
   every deterministic metric (byte-identical stripped expositions), the
   pool section checks the parallel counters are jobs-invariant, the
   repair section cross-checks the dynamic.repair.* counters against the
   engine's own outcome records, and the cache section demonstrates the
   miss-then-hit discipline of the generator cache.  The only wall-clock
   cell is pool utilization (a Time field, tolerance-banded in diffs);
   everything else is exact, so the artifact is byte-identical for every
   --jobs value.  Sequential on purpose: the pool section re-attaches the
   registry behind the harness's back and must not race a pmap. *)
let table_o2 ~quick () =
  let sizes = if quick then [ 128; 256 ] else [ 256; 1024; 4096 ] in
  let cnt s name = Option.value ~default:0 (Metrics.find_counter s name) in
  (* --- congest engines: deterministic message-plane efficiency --- *)
  let ecols =
    [
      T.col ~w:6 "n";
      T.col ~align:`L ~w:6 "engine";
      T.col ~w:10 "delivered";
      T.col ~w:7 "rounds";
      T.col ~w:9 ~render:(fun v -> Printf.sprintf "%.4f" (T.to_float v))
        "msgs/arc/rnd";
      T.col ~w:9 "payload";
      T.col ~w:7 "max own";
    ]
  in
  let engine_rows =
    List.concat_map
      (fun n ->
        let g = Gcache.gnp ~seed:67 ~n ~avg_degree:8.0 in
        let arcs = 2 * Graph.m g in
        let witness engine =
          let reg = Metrics.create () in
          let _ = Programs.bfs ~metrics:reg ~engine g ~root:0 in
          Metrics.snapshot reg
        in
        let sf = witness `Fast and sr = witness `Ref in
        let agree =
          Metrics.exposition (Metrics.strip_timing sf)
          = Metrics.exposition (Metrics.strip_timing sr)
        in
        let row engine s =
          let d = cnt s "congest.deliveries_total" in
          let r = cnt s "congest.rounds_total" in
          T.row
            ~bounds:
              [
                T.flag
                  ~id:(Printf.sprintf "o2-engines-agree-n%d" n)
                  ~descr:
                    "Fast and Ref snapshots are byte-identical outside \
                     timing.*"
                  agree;
                T.ge
                  ~id:(Printf.sprintf "o2-bfs-floods-n%d-%s" n engine)
                  ~descr:"a BFS flood delivers at least one message per edge"
                  (fi d) (fi (Graph.m g));
              ]
            [
              ("n", T.Int n);
              ("engine", T.Str engine);
              ("delivered", T.Int d);
              ("rounds", T.Int r);
              ( "msgs/arc/rnd",
                T.Float (fi d /. (fi arcs *. fi (max 1 r))) );
              ("payload", T.Int (cnt s "congest.payload_words_total"));
              ( "max own",
                T.Int
                  (Option.value ~default:0
                     (Metrics.find_gauge s "congest.max_payload_words")) );
            ]
        in
        [ row "fast" sf; row "ref" sr ])
      sizes
  in
  let engine_section =
    T.section
      ~caption:
        [
          "";
          "BFS flood per engine, read from congest.* counters; msgs/arc/rnd \
           is the per-arc";
          "per-round load (efficiency of the message plane, not of the \
           algorithm).";
        ]
      ~cols:ecols "engines" engine_rows
  in
  (* --- domain pool: jobs-invariant counters, measured utilization --- *)
  let pn = if quick then 256 else 512 in
  let pg = Gcache.wgnp ~seed:71 ~n:pn ~avg_degree:8.0 ~max_w:1000 in
  let pkeep = (Bs_derand.run ~k:2 pg).Bs_derand.spanner.Spanner.keep in
  let pool_witness j =
    (* untimed warm-up: worker spawn cost must not land inside the
       measured section, or the utilization cell picks up a cold-start
       outlier that blows the Time tolerance band of the golden differ *)
    ignore (Stretch.max_edge_stretch ~jobs:j pg pkeep);
    let reg = Metrics.create () in
    Parallel.set_metrics (Some reg);
    Fun.protect
      ~finally:(fun () -> Parallel.set_metrics !global_metrics)
      (fun () -> ignore (Stretch.max_edge_stretch ~jobs:j pg pkeep));
    Metrics.snapshot reg
  in
  let pool_jobs = [ 1; 4 ] in
  let pool_snaps = List.map (fun j -> (j, pool_witness j)) pool_jobs in
  let pool_invariant =
    match pool_snaps with
    | (_, s0) :: rest ->
        let e0 = Metrics.exposition (Metrics.strip_timing s0) in
        List.for_all
          (fun (_, s) -> Metrics.exposition (Metrics.strip_timing s) = e0)
          rest
    | [] -> true
  in
  let pcols =
    [
      T.col ~w:5 "jobs";
      T.col ~w:9 "sections";
      T.col ~w:8 "chunks";
      T.col ~w:8 "items";
      T.col ~w:11 ~render:(fun v -> Printf.sprintf "%.0f%%" (100.0 *. T.to_float v))
        "utilization";
    ]
  in
  let pool_rows =
    List.map
      (fun (j, s) ->
        let tsec name =
          match Metrics.find_timer s name with
          | Some d -> d.Metrics.tseconds
          | None -> 0.0
        in
        let run = tsec "timing.parallel.pool.chunk_run" in
        let cap = tsec "timing.parallel.pool.job_capacity" in
        let util = if cap > 0.0 then run /. cap else 0.0 in
        T.row
          ~bounds:
            [
              T.flag ~id:(Printf.sprintf "o2-pool-jobs-invariant-j%d" j)
                ~descr:
                  "parallel.* counters are byte-identical for every job count"
                pool_invariant;
            ]
          [
            ("jobs", T.Int j);
            ("sections", T.Int (cnt s "parallel.sections_total"));
            ("chunks", T.Int (cnt s "parallel.chunks_total"));
            ("items", T.Int (cnt s "parallel.items_total"));
            ("utilization", T.Time util);
          ])
      pool_snaps
  in
  let pool_section =
    T.section
      ~caption:
        [
          "";
          Printf.sprintf
            "exact stretch verification (n=%d) under the domain pool; \
             utilization ="
            pn;
          "chunk_run / job_capacity (wall-clock, tolerance-banded; the \
           counters are exact).";
        ]
      ~cols:pcols "pool" pool_rows
  in
  (* --- self-healing engine: metrics vs the engine's own ledger --- *)
  let rg = Gcache.torus 12 in
  let stream =
    Update_stream.generate ~rng:(Rng.create 79) ~batches:4 ~ops:6
      ~insert_frac:0.5 ~max_w:1 rg
  in
  let rreg = Metrics.create () in
  let eng = Repair.create ~metrics:rreg (Repair.defaults ~k:2) rg in
  let outcomes = Repair.apply_stream eng stream in
  let rs = Metrics.snapshot rreg in
  let osum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let rcols =
    [
      T.col ~w:8 "batches";
      T.col ~w:8 "repairs";
      T.col ~w:9 "rebuilds";
      T.col ~w:11 "candidates";
      T.col ~w:9 "filtered";
      T.col ~w:9 "work";
      T.col ~w:5 "debt";
    ]
  in
  let repair_rows =
    [
      T.row
        ~bounds:
          [
            T.flag ~id:"o2-repair-batches-ledger"
              ~descr:
                "dynamic.repair.batches_total equals the outcome count"
              (cnt rs "dynamic.repair.batches_total" = List.length outcomes);
            T.flag ~id:"o2-repair-work-ledger"
              ~descr:
                "dynamic.repair.work_total equals the summed outcome work"
              (cnt rs "dynamic.repair.work_total"
              = osum (fun o -> o.Repair.work));
            T.flag ~id:"o2-repair-debt-ledger"
              ~descr:"the recert_debt gauge tracks the engine's debt"
              (Metrics.find_gauge rs "dynamic.repair.recert_debt"
              = Some (Repair.cert_debt eng));
          ]
        [
          ("batches", T.Int (cnt rs "dynamic.repair.batches_total"));
          ("repairs", T.Int (cnt rs "dynamic.repair.repairs_total"));
          ("rebuilds", T.Int (cnt rs "dynamic.repair.rebuilds_total"));
          ("candidates", T.Int (cnt rs "dynamic.repair.candidates_total"));
          ("filtered", T.Int (cnt rs "dynamic.repair.candidates_filtered"));
          ("work", T.Int (cnt rs "dynamic.repair.work_total"));
          ( "debt",
            T.Int
              (Option.value ~default:0
                 (Metrics.find_gauge rs "dynamic.repair.recert_debt")) );
        ];
    ]
  in
  let repair_section =
    T.section
      ~caption:
        [
          "";
          "seeded update stream (torus 12x12, 4 batches x 6 ops) through the \
           repair engine;";
          "every dynamic.repair.* metric is cross-checked against the \
           engine's outcome records.";
        ]
      ~cols:rcols "repair" repair_rows
  in
  (* --- generator cache: miss-then-hit discipline --- *)
  let m0 = !Gcache.misses in
  let _ = Gcache.geometric ~seed:73 ~n:200 ~radius:0.12 in
  let h1 = !Gcache.hits and m1 = !Gcache.misses in
  let _ = Gcache.geometric ~seed:73 ~n:200 ~radius:0.12 in
  let h2 = !Gcache.hits and m2 = !Gcache.misses in
  let cache_rows =
    [
      T.row
        ~bounds:
          [
            T.flag ~id:"o2-cache-first-misses"
              ~descr:"first access to a fresh key misses" (m1 - m0 = 1);
            T.flag ~id:"o2-cache-then-hits"
              ~descr:"repeat access hits without rebuilding"
              (h2 - h1 = 1 && m2 - m1 = 0);
          ]
        [
          ("access", T.Str "first/second");
          ("miss delta", T.Int (m1 - m0));
          ("hit delta", T.Int (h2 - h1));
        ];
    ]
  in
  let cache_section =
    T.section
      ~caption:
        [
          "";
          "generator cache (bench.gcache.* counters): a fresh O2-only key \
           misses once, then hits.";
        ]
      ~rule:false
      ~cols:
        [
          T.col ~align:`L ~w:14 "access";
          T.col ~w:11 "miss delta";
          T.col ~w:10 "hit delta";
        ]
      "cache" cache_rows
  in
  T.make ~id:"o2"
    ~title:
      "O2: efficiency metrics from the unified metrics plane — message-plane \
       load per\n\
       engine, jobs-invariant pool counters with measured utilization, \
       repair-engine\n\
       ledger cross-checks and generator-cache discipline"
    ~params:
      [
        ("quick", T.Bool quick);
        ("sizes", T.Str (String.concat "," (List.map string_of_int sizes)));
      ]
    ~notes:
      [
        "";
        "every counter outside timing.* is byte-identical across engines \
         and --jobs (gated";
        "here and by test/test_metrics.ml); utilization is the only \
         wall-clock cell.";
      ]
    [ engine_section; pool_section; repair_section; cache_section ]

(* ------------------------------------------------------------------ *)
(* D1 — self-healing: batched update streams, incremental repair vs    *)
(* from-scratch rebuild, recertified recovery                           *)
(* ------------------------------------------------------------------ *)

(* Differential harness: the same seeded stream drives an incremental
   engine and a rebuild-every-batch engine from a common initial state,
   and after every batch BOTH are recertified by the ground-truth
   checkers.  The engines are stateful so each workload is sequential;
   the independent workloads fan over the domain pool instead. *)
let d1_run cfg g stream =
  let inc = Repair.create cfg g in
  let rb = Repair.create { cfg with Repair.mode = `Rebuild } g in
  let per =
    List.map
      (fun b ->
        let oi = Repair.apply_batch inc b in
        let orb = Repair.apply_batch rb b in
        let vi = Repair.recertify inc in
        let vrb = Repair.recertify rb in
        (oi, orb, vi, vrb))
      stream.Update_stream.batches
  in
  (inc, rb, per)

let d1_action = function `Repair -> "repair" | `Rebuild -> "rebuild"

let table_d1 ~quick () =
  let k = 3 in
  let alpha = (2 * k) - 1 in
  let batch_cols =
    [
      T.col ~w:5 "batch";
      T.col ~w:4 "ins";
      T.col ~w:4 "del";
      T.col ~align:`L ~w:7 "action";
      T.col ~w:5 "dirty";
      T.col ~w:5 "cand";
      T.col ~w:5 "added";
      T.col ~w:8 "work";
      T.col ~w:8 ~title:"rb-work" "rb_work";
      T.col ~w:8 "stretch";
    ]
  in
  (* Workload 1: unit-weight torus under a seeded insert/delete mix.
     Balls of radius 2k-1 have O(1) size here while the rebuild proxy
     grows with m, so past a modest scale locality pays on the
     deterministic work counters too, not just on wall clock. *)
  let side = if quick then 28 else 40 in
  let batches = if quick then 6 else 8 in
  let ops = if quick then 6 else 12 in
  let torus_sections () =
    let g = Gcache.torus side in
    let stream =
      Update_stream.generate ~rng:(Rng.create 83) ~batches ~ops
        ~insert_frac:0.5 ~max_w:1 g
    in
    let cfg = { (Repair.defaults ~k) with Repair.jobs = !jobs } in
    let inc, rb, per = d1_run cfg g stream in
    let open Repair in
    let rows =
      List.map
        (fun (oi, orb, vi, vrb) ->
          T.row
            ~bounds:
              [
                T.flag
                  ~id:(Printf.sprintf "stretch-ok/b%d" oi.batch)
                  ~descr:"post-batch state passes check_stretch at 2k-1"
                  vi.stretch_ok;
                T.flag
                  ~id:(Printf.sprintf "verdict-match/b%d" oi.batch)
                  ~descr:"repair and rebuild agree on every verdict"
                  (vi.stretch_ok = vrb.stretch_ok && vi.spanning = vrb.spanning);
              ]
            [
              ("batch", T.Int oi.batch);
              ("ins", T.Int oi.inserts);
              ("del", T.Int oi.deletes);
              ("action", T.Str (d1_action oi.action));
              ("dirty", T.Int oi.dirty);
              ("cand", T.Int oi.candidates);
              ("added", T.Int oi.added);
              ("work", T.Int oi.work);
              ("rb_work", T.Int orb.work);
              ("stretch", T.Float vi.stretch);
            ])
        per
    in
    let nb = List.length per in
    let total_ops = Update_stream.op_count stream in
    let inc_work = List.fold_left (fun a (o, _, _, _) -> a + o.work) 0 per in
    let rb_work = List.fold_left (fun a (_, o, _, _) -> a + o.work) 0 per in
    let wins =
      List.length
        (List.filter
           (fun (o, _, _, _) -> o.action = `Repair && o.work < o.rebuild_work)
           per)
    in
    let final_stretch =
      match List.rev per with (_, _, v, _) :: _ -> v.stretch | [] -> 1.0
    in
    let same_graph =
      Graph_io.to_string (Repair.graph inc) = Graph_io.to_string (Repair.graph rb)
    in
    (* replay determinism: a fresh engine over the same stream reproduces
       every outcome, the final graph and the final spanner mask *)
    let state e os =
      (os, Graph_io.to_string (Repair.graph e), Repair.spanner e)
    in
    let fresh = Repair.create cfg g in
    let replayed = state fresh (Repair.apply_stream fresh stream) in
    let first = state inc (List.map (fun (o, _, _, _) -> o) per) in
    let identical = replayed = first in
    let scols =
      [ T.col ~align:`L ~w:46 "metric"; T.col ~w:10 "value" ]
    in
    let srow ?(bounds = []) m v = T.row ~bounds [ ("metric", T.Str m); ("value", v) ] in
    [
      T.section
        ~caption:
          [
            Printf.sprintf
              "torus %dx%d (unit weights), k=%d: stream seed 83, %d batches x \
               %d ops, insert_frac 0.5."
              side side k batches ops;
            "work = Dijkstra relaxations + candidate-filter scans; rb-work = \
             the rebuild engine's";
            "(k+1)m + n proxy (a lower bound, so the comparison favours the \
             rebuild).";
          ]
        ~cols:batch_cols "torus" rows;
      T.section ~caption:[ "" ] ~cols:scols ~rule:false "summary"
        [
          srow "amortized work per update (incremental)"
            (T.Float (fi inc_work /. fi total_ops));
          srow "amortized work per update (rebuild proxy)"
            (T.Float (fi rb_work /. fi total_ops));
          srow
            ~bounds:
              [
                T.ge ~id:"win-ratio>=1/2"
                  ~descr:
                    "repair beats the rebuild proxy on counted work in at \
                     least half the batches"
                  (fi wins /. fi nb) 0.5;
              ]
            "batches where repair work < rebuild proxy"
            (T.Str (Printf.sprintf "%d/%d" wins nb));
          srow
            ~bounds:
              [
                T.le ~id:"stretch<=2k-1"
                  ~descr:"stretch never drifts past the 2k-1 contract"
                  final_stretch (fi alpha);
              ]
            "final stretch (incremental engine)" (T.Float final_stretch);
          srow
            ~bounds:
              [
                T.flag ~id:"engines-same-graph"
                  ~descr:"both engines track the same current graph"
                  same_graph;
              ]
            "final graphs identical (repair vs rebuild)"
            (T.Str (if same_graph then "yes" else "NO"));
          srow
            ~bounds:
              [
                T.flag ~id:"replay-deterministic"
                  ~descr:
                    "a fresh engine on the same stream reproduces outcomes, \
                     graph and spanner"
                  identical;
              ]
            "replay determinism (fresh engine, same stream)"
            (T.Str (if identical then "bit-identical" else "MISMATCH"));
        ];
    ]
  in
  (* Workload 2: a PR-1 fault plan reinterpreted as a deletion stream on a
     Harary graph, with a lazily recertified Thurimella certificate. *)
  let fn = if quick then 48 else 96 in
  let fcount = if quick then 8 else 16 in
  let fault_sections () =
    let g = Gcache.harary ~k:4 ~n:fn in
    let plan =
      Faults.random_link_failures ~rng:(Rng.create 101) g ~within:3
        ~count:fcount Faults.empty
    in
    let stream = Update_stream.of_faults g plan in
    let cfg =
      {
        (Repair.defaults ~k:2) with
        Repair.cert = Some (Repair.Thurimella, 2);
        Repair.jobs = !jobs;
      }
    in
    let eng = Repair.create cfg g in
    let open Repair in
    let rows =
      List.map
        (fun b ->
          let o = Repair.apply_batch eng b in
          let v =
            Repair.recertify ~rng:(Rng.create 7)
              ~budget:(if quick then 120 else 200)
              eng
          in
          T.row
            ~bounds:
              [
                T.flag
                  ~id:(Printf.sprintf "fault-stretch-ok/b%d" o.batch)
                  ~descr:"post-batch state passes check_stretch at 2k-1"
                  v.stretch_ok;
                T.flag
                  ~id:(Printf.sprintf "cert-ok/b%d" o.batch)
                  ~descr:"Certificate.is_certificate holds after the batch"
                  (v.cert_ok = Some true);
                T.flag
                  ~id:(Printf.sprintf "cert-resilient/b%d" o.batch)
                  ~descr:"zero violations under Resilience failure sets"
                  (v.cert_violations = Some 0);
                T.le
                  ~id:(Printf.sprintf "debt<=headroom/b%d" o.batch)
                  ~descr:"deletion debt never exceeds the built-in headroom"
                  (fi o.cert_debt)
                  (fi cfg.Repair.headroom);
              ]
            [
              ("batch", T.Int o.batch);
              ("del", T.Int o.deletes);
              ("action", T.Str (d1_action o.action));
              ("cert_rm", T.Int o.cert_removed);
              ("debt", T.Int o.cert_debt);
              ("rebuilt", T.Str (if o.cert_rebuilt then "yes" else "-"));
              ("csize", T.Int (Repair.certificate_size eng));
              ("stretch", T.Float v.stretch);
            ])
        stream.Update_stream.batches
    in
    [
      T.section
        ~caption:
          [
            "";
            Printf.sprintf
              "fault-plan stream (harary k=4 n=%d): %d random link failures \
               within 4 rounds"
              fn fcount;
            "(Faults.random_link_failures seed 101 -> Update_stream.of_faults), \
             spanner k=2 with a";
            "Thurimella 2-certificate, headroom 2: debt-tracked lazy \
             recertification.";
          ]
        ~cols:
          [
            T.col ~w:5 "batch";
            T.col ~w:4 "del";
            T.col ~align:`L ~w:7 "action";
            T.col ~w:7 "cert_rm";
            T.col ~w:5 "debt";
            T.col ~align:`L ~w:7 "rebuilt";
            T.col ~w:6 "csize";
            T.col ~w:8 "stretch";
          ]
        "faults" rows;
    ]
  in
  let sections =
    List.concat (pmap (fun build -> build ()) [ torus_sections; fault_sections ])
  in
  T.make ~id:"d1"
    ~title:
      "D1: self-healing — batched update streams, incremental repair vs \
       from-scratch rebuild,\n\
       and recertified recovery (ground-truth checkers after every batch)"
    ~params:
      [
        ("quick", T.Bool quick);
        ("k", T.Int k);
        ("torus", T.Str (Printf.sprintf "%dx%d" side side));
        ("fault_n", T.Int fn);
      ]
    ~notes:
      [
        "shape check: every post-batch state passes check_stretch at 2k-1, \
         the repair engine matches";
        "the rebuild baseline's verdicts, and the fault-derived stream keeps \
         the certificate valid";
        "with zero Resilience violations.  Rebuild work is the documented \
         lower-bound proxy";
        "(k+1)m + n, so the win-ratio claim is conservative.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* V1 — verification plane: checker rounds and probe queries vs n      *)
(* ------------------------------------------------------------------ *)

let table_v1 ~quick () =
  let sizes = if quick then [ 256; 512 ] else [ 256; 512; 1024 ] in
  let k = 3 and ck = 2 in
  let cols =
    [
      T.col ~w:7 "n";
      T.col ~w:8 "m";
      T.col ~w:8 ~title:"non-sp" "nonsp";
      T.col ~w:7 ~title:"sp rnd" "sp_rounds";
      T.col ~w:9 ~title:"sp msgs" "sp_msgs";
      T.col ~w:6 "words";
      T.col ~w:7 ~title:"ct rnd" "ct_rounds";
      T.col ~w:9 ~title:"ct msgs" "ct_msgs";
      T.col ~w:8 "samples";
      T.col ~w:5 "cap";
      T.col ~w:8 "queries";
    ]
  in
  let rows =
    List.map
      (fun n ->
        (* degree ~ n/8 keeps the spanner strictly sparser than the input
           at every scale, so the walk checker always has tokens to route *)
        let g = Gcache.gnp ~seed:47 ~n ~avg_degree:(fi n /. 8.) in
        let sp = (Bs_derand.run ~k g).Bs_derand.spanner in
        let w = Witness.spanner g ~k sp in
        let cv =
          Checkers.spanner ~jobs:!jobs g ~keep:sp.Spanner.keep ~k
            ~detour:w.Witness.detour
        in
        let cert = Thurimella.certificate ~k:ck g in
        let fv =
          match Witness.certificate g cert with
          | Error e -> failwith ("v1: no certificate witness: " ^ e)
          | Ok cw ->
              Checkers.forests ~jobs:!jobs g
                ~keep:cert.Certificate.keep ~k:ck ~forest:cw.Witness.forest
                ~parent:cw.Witness.parent ~depth:cw.Witness.depth
                ~root:cw.Witness.root
        in
        let pv =
          Eps_far.connectivity ~keep:sp.Spanner.keep ~seed:3 ~epsilon:0.1 g
        in
        let sps = cv.Checkers.stats and cts = fv.Checkers.stats in
        T.row
          ~bounds:
            [
              T.flag ~id:"accepted"
                ~descr:"every node accepts all three verifications"
                (w.Witness.missing = 0
                && Checkers.all_accept cv && Checkers.all_accept fv
                && pv.Eps_far.accepted);
              T.le ~id:"sp-words<=2k+3"
                ~descr:"walk-token payload: id, index, weight, <=2k hops"
                (fi sps.Network.max_words)
                (fi ((2 * k) + 3));
              T.le ~id:"ct-rounds<=3"
                ~descr:"the forest checker is O(1) rounds at every n"
                (fi cts.Network.rounds) 3.0;
              T.le ~id:"probe<=budget"
                ~descr:"eps-far vertex queries within samples * cap"
                (fi pv.Eps_far.vertex_queries)
                (fi (pv.Eps_far.samples * pv.Eps_far.cap));
            ]
          [
            ("n", T.Int n);
            ("m", T.Int (Graph.m g));
            ("nonsp", T.Int (Graph.m g - Spanner.size sp));
            ("sp_rounds", T.Int sps.Network.rounds);
            ("sp_msgs", T.Int sps.Network.messages);
            ("words", T.Int sps.Network.max_words);
            ("ct_rounds", T.Int cts.Network.rounds);
            ("ct_msgs", T.Int cts.Network.messages);
            ("samples", T.Int pv.Eps_far.samples);
            ("cap", T.Int pv.Eps_far.cap);
            ("queries", T.Int (pv.Eps_far.vertex_queries + pv.Eps_far.edge_queries));
          ])
      sizes
  in
  T.make ~id:"v1"
    ~title:
      "V1: verification plane — O(k)-round spanner walk checker, O(1)-round \
       forest checker\n\
       and eps-far probe budget as n grows"
    ~params:[ ("quick", T.Bool quick); ("k", T.Int k); ("cert_k", T.Int ck) ]
    ~notes:
      [
        "shape check: checker rounds depend on k and local congestion, not \
         on n; the forest";
        "checker is 2 rounds flat; probe queries track the eps-far sample \
         budget, not m.";
      ]
    [ T.section ~rule:false ~cols "scaling" rows ]

(* ------------------------------------------------------------------ *)
(* Q1 — distance-oracle serving: queries/sec and observed stretch       *)
(* ------------------------------------------------------------------ *)

let q1_runs = 5

let table_q1 ~quick () =
  let sizes = if quick then [ 256; 512 ] else [ 512; 1024; 2048 ] in
  let ks = [ 2; 3 ] in
  let count = if quick then 1024 else 4096 in
  let cols =
    [
      T.col ~w:6 "n";
      T.col ~w:4 "k";
      T.col ~w:8 "m";
      T.col ~w:8 "edges";
      T.col ~w:9 "bytes";
      T.col ~w:8 "queries";
      T.col ~w:11
        ~render:(fun v -> Printf.sprintf "%.0f" (T.to_float v))
        "qps";
      T.col ~w:9 ~title:"stretch*" ~render:T.pretty "stretch";
    ]
  in
  (* Sequential on purpose (like t9/o1): the qps Time cells measure a
     serving phase that must not share cores with other sections.  The
     engine itself fans out over -j domains. *)
  let sections =
    List.map
      (fun n ->
        (* dense enough that the spanner strictly sparsifies (observed
           stretch > 1) at every size — bs-derand keeps ~k n^{1/k} edges
           per vertex, so the degree must clear that at the largest n for
           the contract bound to be a real check *)
        let g = Gcache.gnp ~seed:53 ~n ~avg_degree:64.0 in
        let rows =
          List.map
            (fun k ->
              let sp = (Bs_derand.run ~k g).Bs_derand.spanner in
              let o = Oracle.compile g ~k sp in
              (* serve from a save/load round-tripped artifact, exactly
                 like the CLI pipeline does *)
              let path = Filename.temp_file "q1oracle" ".bin" in
              let bytes = Oracle.save path o in
              let o' = Oracle.load path in
              Sys.remove path;
              let roundtrip_ok = Oracle.equal o o' in
              let qs =
                Query_engine.generate ~rng:(Rng.create (100 + k)) ~n ~count
              in
              (* qps is the median of [q1_runs] timings of the same batch,
                 so one descheduled ~10 ms run cannot move the cell; every
                 run must give the first run's answers and stats *)
              let timed () =
                let t0 = Unix.gettimeofday () in
                let r = Query_engine.run ~jobs:!jobs o' qs in
                (r, Unix.gettimeofday () -. t0)
              in
              let ((answers, st) as first), dt0 = timed () in
              let dts = Array.make q1_runs dt0 in
              for i = 1 to q1_runs - 1 do
                let r, dt = timed () in
                if r <> first then
                  failwith "q1: a repeated batch changed its answers";
                dts.(i) <- dt
              done;
              Array.sort compare dts;
              let dt = dts.(q1_runs / 2) in
              (* bound predicates: every answered distance within
                 [d_G, (2k-1) d_G], membership consistent with the mask *)
              let stretch_obs = ref 1.0 and floor_ok = ref true in
              let mem_ok = ref true in
              Array.iteri
                (fun i q ->
                  match (q, answers.(i)) with
                  | Query_engine.Dist (s, t), Query_engine.Dist_answer d
                    when s <> t ->
                      let dg = Dijkstra.distance g s t in
                      if d < dg then floor_ok := false;
                      if dg > 0 && d < Dijkstra.infinity then begin
                        let r = fi d /. fi dg in
                        if r > !stretch_obs then stretch_obs := r
                      end
                  | Query_engine.Mem (u, v), Query_engine.Mem_answer a ->
                      let expect =
                        if u = v then None
                        else
                          match Graph.find_edge g u v with
                          | Some e when sp.Spanner.keep.(e) -> Some e
                          | _ -> None
                      in
                      if a <> expect then mem_ok := false
                  | _ -> ())
                qs;
              T.row
                ~bounds:
                  [
                    T.le ~id:"stretch<=2k-1"
                      ~descr:"every answered distance within the paper contract"
                      !stretch_obs
                      (fi ((2 * k) - 1));
                    T.flag ~id:"ans>=d_G"
                      ~descr:"answers never undercut the true distance"
                      !floor_ok;
                    T.flag ~id:"membership"
                      ~descr:"membership answers match the kept-edge mask"
                      !mem_ok;
                    T.flag ~id:"roundtrip"
                      ~descr:"artifact survives save/load structurally intact"
                      roundtrip_ok;
                  ]
                [
                  ("n", T.Int n);
                  ("k", T.Int k);
                  ("m", T.Int (Graph.m g));
                  ("edges", T.Int (Spanner.size sp));
                  ("bytes", T.Int bytes);
                  ("queries", T.Int st.Query_engine.queries);
                  ("qps", T.Time (fi st.Query_engine.queries /. dt));
                  ("stretch", T.Float !stretch_obs);
                ])
            ks
        in
        T.section ~cols (Printf.sprintf "n%d" n) rows)
      sizes
  in
  T.make ~id:"q1"
    ~title:
      "Q1: distance-oracle serving — queries/sec and observed stretch vs n, k"
    ~params:[ ("quick", T.Bool quick); ("queries", T.Int count) ]
    ~notes:
      [
        "(*) stretch observed over the served batch (hot-skewed dist + \
         membership mix); the (2k-1)";
        "contract and the d_G floor are checked per answer.";
      ]
    sections

(* ------------------------------------------------------------------ *)
(* XFAIL — hidden negative control for CI (--table xfail --strict       *)
(* must exit 1; never part of the default selection)                    *)
(* ------------------------------------------------------------------ *)

let xfail ~quick () =
  T.make ~id:"xfail"
    ~title:"XFAIL: deliberately violated bound (CI negative control)"
    ~params:[ ("quick", T.Bool quick) ]
    ~notes:[ "this table exists so CI can prove --strict catches violations." ]
    [
      T.section
        ~cols:[ T.col ~w:8 "two" ]
        "x"
        [
          T.row
            ~bounds:[ T.le ~id:"two<=one" ~descr:"intentionally false" 2.0 1.0 ]
            [ ("two", T.Int 2) ];
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_tables =
  [
    ("t1", table1); ("t2", table2); ("t3", table3); ("t4", table4);
    ("f1", fig1); ("t5", table5); ("t6", table6); ("t7", table7);
    ("t8", table8); ("t9", table9); ("r1", table_r1);
    ("a1", ablation_derand); ("a2", ablation_merge); ("o1", table_o1);
    ("o2", table_o2); ("d1", table_d1); ("v1", table_v1); ("q1", table_q1);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--all] [--table ID]... [--strict]\n\
    \                [--artifacts DIR] [--against DIR] [--refresh-goldens]\n\
    \                [--jobs N | -j N] [--metrics FILE]\n\
    \                [--verify local|exact|probe]\n\
     tables: t1 t2 t3 t4 t5 t6 t7 t8 t9 f1 r1 a1 a2 o1 o2 d1 v1 q1 (and \
     xfail, the negative control)"

let die fmtstr =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("main.exe: " ^ s);
      usage ();
      exit 2)
    fmtstr

let () =
  let quick = ref false
  and strict_mode = ref false
  and all_flag = ref false
  and refresh = ref false
  and artifacts_dir = ref "artifacts"
  and against = ref None
  and metrics_file = ref None
  and verify_mode = ref None
  and tables = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: r -> quick := true; parse r
    | "--all" :: r -> all_flag := true; parse r
    | "--strict" :: r -> strict_mode := true; parse r
    | "--refresh-goldens" :: r -> refresh := true; parse r
    | "--table" :: id :: r -> tables := !tables @ [ id ]; parse r
    | "--artifacts" :: d :: r -> artifacts_dir := d; parse r
    | "--against" :: d :: r -> against := Some d; parse r
    | "--metrics" :: f :: r -> metrics_file := Some f; parse r
    | ("--jobs" | "-j") :: v :: r ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> jobs := j
        | _ -> die "--jobs expects a positive integer, got %S" v);
        parse r
    | "--verify" :: m :: r ->
        (match Verify.mode_of_string m with
        | Ok mode -> verify_mode := Some mode
        | Error e -> die "%s" e);
        parse r
    | [ (("--table" | "--artifacts" | "--against" | "--jobs" | "-j"
        | "--metrics" | "--verify") as f) ]
      ->
        die "%s needs an argument" f
    | a :: _ -> die "unknown argument %S" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !metrics_file with
  | None -> ()
  | Some _ ->
      let reg = Metrics.create () in
      global_metrics := Some reg;
      Parallel.set_metrics (Some reg);
      Gcache.set_metrics reg);
  let registry = all_tables @ [ ("xfail", xfail) ] in
  let sel =
    if !all_flag || !tables = [] then List.map fst all_tables
    else
      List.map
        (fun id ->
          if List.mem_assoc id registry then id else die "unknown table %S" id)
        !tables
  in
  let viols = ref 0
  and checked = ref 0
  and diffs = ref 0
  and missing = ref 0
  and written = ref 0 in
  List.iter
    (fun id ->
      let build = List.assoc id registry in
      let t = build ~quick:!quick () in
      T.print t;
      checked := !checked + T.bounds_checked t;
      List.iter
        (fun (sid, label, (b : T.bound)) ->
          incr viols;
          Printf.eprintf
            "BOUND VIOLATION %s/%s [%s] %s: observed %g, limit %g%s\n"
            t.T.id sid label b.T.bid b.T.observed b.T.limit
            (if b.T.descr = "" then "" else " — " ^ b.T.descr))
        (T.violations t);
      match !against with
      | Some dir when !refresh ->
          written := !written + 1;
          ignore (T.save ~dir t)
      | Some dir ->
          let path = T.artifact_path ~dir t in
          if not (Sys.file_exists path) then begin
            incr missing;
            Printf.eprintf "MISSING GOLDEN %s\n" path
          end
          else begin
            let golden = T.load path in
            let ds = T.diff ~golden t in
            List.iter
              (fun d ->
                incr diffs;
                Printf.eprintf "DIFF %s\n" d)
              ds
          end
      | None -> written := !written + 1; ignore (T.save ~dir:!artifacts_dir t))
    sel;
  (match !verify_mode with
  | None -> ()
  | Some mode ->
      (* post-table gate: verify freshly built artifacts in the
         requested mode; a rejection is a bound violation, so --strict
         turns it into exit 1 *)
      let n = if !quick then 256 else 512 in
      let g = Gcache.gnp ~seed:47 ~n ~avg_degree:(fi n /. 8.) in
      let sp = (Bs_derand.run ~k:3 g).Bs_derand.spanner in
      let vs = Verify.spanner ~jobs:!jobs ~mode ~k:3 g sp in
      let cert = Thurimella.certificate ~k:2 g in
      let vc = Verify.certificate ~jobs:!jobs ~mode g cert in
      List.iter
        (fun (v : Verify.verdict) ->
          incr checked;
          fmt "[verify %s]\n" (Format.asprintf "%a" Verify.pp_verdict v);
          if not v.Verify.ok then begin
            incr viols;
            Printf.eprintf "VERIFY REJECTED %s (%s mode)\n" v.Verify.target
              (Verify.mode_name mode)
          end)
        [ vs; vc ]);
  fmt "\n[%d bound(s) checked, %d violated]\n" !checked !viols;
  fmt "[graph cache: %d hit(s), %d miss(es)]\n" !Gcache.hits !Gcache.misses;
  (match !against with
  | Some dir when !refresh ->
      fmt "[refreshed %d golden artifact(s) in %s]\n" !written dir
  | Some dir ->
      fmt "[against %s: %d diff(s), %d missing artifact(s)]\n" dir !diffs
        !missing
  | None -> fmt "[wrote %d artifact(s) to %s]\n" !written !artifacts_dir);
  (match (!metrics_file, !global_metrics) with
  | Some path, Some reg ->
      Parallel.set_metrics None;
      Metrics_io.save_registry path reg;
      fmt "[wrote metrics snapshot to %s]\n" path
  | _ -> ());
  let fail_strict = !strict_mode && !viols > 0 in
  let fail_diff = !diffs > 0 || !missing > 0 in
  if fail_strict || fail_diff then exit 1
