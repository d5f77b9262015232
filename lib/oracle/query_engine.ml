open! Import

let queries_schema = "ultraspan-queries/1"
let results_schema = "ultraspan-results/1"

type query = Dist of int * int | Mem of int * int
type answer = Dist_answer of int | Mem_answer of int option

(* ------------------------------------------------------------------ *)
(* text formats                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let parse_queries ~path s =
  let fail line fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "%s:%d: %s" path line m)) fmt
  in
  match String.split_on_char '\n' s with
  | [] | [ "" ] -> failwith (Printf.sprintf "%s: empty query file" path)
  | header :: body ->
      if String.trim header <> queries_schema then
        fail 1 "bad header %S (expected %S)" (String.trim header) queries_schema;
      let qs = ref [] in
      List.iteri
        (fun i line ->
          let lineno = i + 2 in
          let line = String.trim line in
          if line <> "" then
            let fields =
              String.split_on_char ' ' line |> List.filter (fun t -> t <> "")
            in
            let vertex t =
              match int_of_string_opt t with
              | Some v when v >= 0 -> v
              | _ -> fail lineno "bad vertex %S" t
            in
            match fields with
            | [ "dist"; a; b ] -> qs := Dist (vertex a, vertex b) :: !qs
            | [ "mem"; a; b ] -> qs := Mem (vertex a, vertex b) :: !qs
            | _ -> fail lineno "unrecognized query %S (want 'dist s t' or 'mem u v')" line)
        body;
      Array.of_list (List.rev !qs)

let load_queries path =
  let s = try read_file path with Sys_error msg -> failwith msg in
  parse_queries ~path s

let save_queries path qs =
  let b = Buffer.create (16 * Array.length qs) in
  Buffer.add_string b queries_schema;
  Buffer.add_char b '\n';
  Array.iter
    (function
      | Dist (s, t) -> Buffer.add_string b (Printf.sprintf "dist %d %d\n" s t)
      | Mem (u, v) -> Buffer.add_string b (Printf.sprintf "mem %d %d\n" u v))
    qs;
  write_file path (Buffer.contents b)

let render_results qs answers =
  if Array.length qs <> Array.length answers then
    invalid_arg "Query_engine.render_results: length mismatch";
  let b = Buffer.create (24 * Array.length qs) in
  Buffer.add_string b results_schema;
  Buffer.add_char b '\n';
  Array.iteri
    (fun i q ->
      match (q, answers.(i)) with
      | Dist (s, t), Dist_answer d ->
          if d = Dijkstra.infinity then
            Buffer.add_string b (Printf.sprintf "dist %d %d inf\n" s t)
          else Buffer.add_string b (Printf.sprintf "dist %d %d %d\n" s t d)
      | Mem (u, v), Mem_answer (Some eid) ->
          Buffer.add_string b (Printf.sprintf "mem %d %d yes %d\n" u v eid)
      | Mem (u, v), Mem_answer None ->
          Buffer.add_string b (Printf.sprintf "mem %d %d no\n" u v)
      | _ -> invalid_arg "Query_engine.render_results: query/answer kind mismatch")
    qs;
  Buffer.contents b

let save_results path qs answers = write_file path (render_results qs answers)

(* ------------------------------------------------------------------ *)
(* workload generation                                                 *)
(* ------------------------------------------------------------------ *)

let generate ~rng ~n ~count =
  if n < 1 then invalid_arg "Query_engine.generate: n must be >= 1";
  (* a small pool of hot sources receives most distance queries, the
     skew of a realistic serving batch *)
  let hot = Array.init (min 8 n) (fun _ -> Rng.int rng n) in
  Array.init count (fun _ ->
      let r = Rng.int rng 100 in
      if r < 25 then Mem (Rng.int rng n, Rng.int rng n)
      else if r < 85 then Dist (hot.(Rng.int rng (Array.length hot)), Rng.int rng n)
      else Dist (Rng.int rng n, Rng.int rng n))

(* ------------------------------------------------------------------ *)
(* bounded bidirectional Dijkstra                                      *)
(* ------------------------------------------------------------------ *)

(* Per-domain scratch, reused across every query, batch and oracle the
   domain serves (the per-query cost is O(touched), not O(n)): stamped
   distance and settled arrays — bumping [stamp] invalidates everything in
   O(1), including entries left by an oracle of another size — plus two
   heaps emptied with [Pqueue.clear]. *)
type scratch = {
  df : int array;
  sf : int array;
  db : int array;
  sb : int array;
  setf : int array;
  setb : int array;
  pqf : (int, int) Pqueue.t;
  pqb : (int, int) Pqueue.t;
  mutable stamp : int;
}

let make_scratch n =
  {
    df = Array.make n 0;
    sf = Array.make n 0;
    db = Array.make n 0;
    sb = Array.make n 0;
    setf = Array.make n 0;
    setb = Array.make n 0;
    pqf = Pqueue.create ~cmp:compare ();
    pqb = Pqueue.create ~cmp:compare ();
    stamp = 0;
  }

(* The calling domain's scratch, grown to the largest [n] it has served. *)
let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let domain_scratch n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.df >= n then sc
  else begin
    let sc = make_scratch n in
    Domain.DLS.set scratch_key sc;
    sc
  end

(* Exact d_H(s, t) for same-cluster endpoints.  Vertices at distance >=
   the best-known meeting path [mu] are never expanded, and the two
   frontiers stop as soon as their tops certify no shorter meeting point
   exists.  The result is independent of the expansion schedule. *)
let bidi (o : Oracle.t) sc s t =
  sc.stamp <- sc.stamp + 1;
  let st = sc.stamp in
  Pqueue.clear sc.pqf;
  Pqueue.clear sc.pqb;
  let g = o.Oracle.graph in
  let csr = Graph.csr g in
  let edges = Graph.edges g in
  let mu = ref Dijkstra.infinity in
  sc.sf.(s) <- st;
  sc.df.(s) <- 0;
  sc.sb.(t) <- st;
  sc.db.(t) <- 0;
  Pqueue.push sc.pqf 0 s;
  Pqueue.push sc.pqb 0 t;
  let expand forward =
    let pq, dist, stamp, odist, ostamp, settled =
      if forward then (sc.pqf, sc.df, sc.sf, sc.db, sc.sb, sc.setf)
      else (sc.pqb, sc.db, sc.sb, sc.df, sc.sf, sc.setb)
    in
    match Pqueue.pop pq with
    | None -> ()
    | Some (d, x) ->
        if settled.(x) <> st && d < !mu then begin
          settled.(x) <- st;
          for a = csr.off.(x) to csr.off.(x + 1) - 1 do
            let u = csr.dst.(a) in
            let nd = d + edges.(csr.eid.(a)).Graph.w in
            if nd < !mu && (stamp.(u) <> st || nd < dist.(u)) then begin
              stamp.(u) <- st;
              dist.(u) <- nd;
              Pqueue.push pq nd u;
              if ostamp.(u) = st && nd + odist.(u) < !mu then
                mu := nd + odist.(u)
            end
          done
        end
  in
  let rec loop () =
    match (Pqueue.peek sc.pqf, Pqueue.peek sc.pqb) with
    | None, None -> ()
    | Some (a, _), Some (b, _) ->
        if a + b < !mu then begin
          expand (a <= b);
          loop ()
        end
    | Some (a, _), None ->
        if a < !mu then begin
          expand true;
          loop ()
        end
    | None, Some (b, _) ->
        if b < !mu then begin
          expand false;
          loop ()
        end
  in
  loop ();
  !mu

(* ------------------------------------------------------------------ *)
(* batch execution                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  queries : int;
  dist : int;
  mem : int;
  unreachable : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}

let run ?jobs ?(metrics = Metrics.disabled) (o : Oracle.t) (qs : query array) =
  let n = Oracle.n o in
  Array.iteri
    (fun i q ->
      let check x =
        if x < 0 || x >= n then
          failwith
            (Printf.sprintf "query %d: vertex %d out of range [0, %d)" (i + 1) x n)
      in
      match q with Dist (s, t) | Mem (s, t) -> check s; check t)
    qs;
  let nq = Array.length qs in
  let answers = Array.make nq (Dist_answer 0) in
  Parallel.iter_blocks ?jobs nq (fun _ lo hi ->
      let sc = domain_scratch n in
      for i = lo to hi - 1 do
        answers.(i) <-
          (match qs.(i) with
          | Mem (u, v) ->
              Mem_answer
                (if u = v then None
                 else
                   Option.map
                     (fun eid -> o.Oracle.orig_eid.{eid})
                     (Graph.find_edge o.Oracle.graph u v))
          | Dist (s, t) ->
              Dist_answer
                (if s = t then 0
                 else if o.Oracle.comp.{s} <> o.Oracle.comp.{t} then
                   Dijkstra.infinity
                 else bidi o sc s t))
      done);
  let count p a =
    Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a
  in
  let dist = count (function Dist _ -> true | Mem _ -> false) qs in
  let stats =
    {
      queries = nq;
      dist;
      mem = nq - dist;
      unreachable =
        count
          (function
            | Dist (s, t) -> o.Oracle.comp.{s} <> o.Oracle.comp.{t}
            | Mem _ -> false)
          qs;
      cache_hits = 0;
      cache_misses = 0;
      cache_evictions = 0;
    }
  in
  (* registry updates happen here, on the calling domain (handle updates
     are unsynchronized) *)
  Metrics.add (Metrics.counter metrics "oracle.queries_total") stats.queries;
  Metrics.add (Metrics.counter metrics "oracle.dist_total") stats.dist;
  Metrics.add (Metrics.counter metrics "oracle.mem_total") stats.mem;
  Metrics.add
    (Metrics.counter metrics "oracle.unreachable_total")
    stats.unreachable;
  (answers, stats)

(* ------------------------------------------------------------------ *)
(* local verification                                                  *)
(* ------------------------------------------------------------------ *)

let spot_check ?(samples = 32) ~rng g (o : Oracle.t) qs answers =
  if Array.length qs <> Array.length answers then
    invalid_arg "Query_engine.spot_check: length mismatch";
  let nq = Array.length qs in
  if nq = 0 then Ok 0
  else begin
    let bound = (2 * o.Oracle.k) - 1 in
    let checked = ref 0 in
    let err = ref None in
    for _ = 1 to samples do
      if !err = None then begin
        let i = Rng.int rng nq in
        incr checked;
        let fail fmt =
          Printf.ksprintf (fun m -> err := Some (Printf.sprintf "query %d: %s" (i + 1) m)) fmt
        in
        match (qs.(i), answers.(i)) with
        | Dist (s, t), Dist_answer d ->
            let dg = Dijkstra.distance g s t in
            if dg = Dijkstra.infinity then begin
              if d <> Dijkstra.infinity then
                fail "answered %d but %d and %d are disconnected in G" d s t
            end
            else if d = Dijkstra.infinity then
              fail "unreachable answer but d_G(%d, %d) = %d" s t dg
            else if d < dg then fail "answer %d below d_G = %d" d dg
            else if dg > 0 && d > bound * dg then
              fail "answer %d violates (2k-1)-stretch: %d * %d = %d" d bound dg
                (bound * dg)
        | Mem (u, v), Mem_answer (Some eid) ->
            if eid < 0 || eid >= Graph.m g then
              fail "membership names edge %d outside G" eid
            else begin
              let a, b = Graph.endpoints g eid in
              if (a, b) <> (min u v, max u v) then
                fail "membership edge %d joins (%d, %d), not (%d, %d)" eid a b u
                  v
            end
        | Mem _, Mem_answer None -> ()
        | _ -> fail "query/answer kind mismatch"
      end
    done;
    match !err with Some m -> Error m | None -> Ok !checked
  end
