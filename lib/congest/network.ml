open! Import

type engine = [ `Fast | `Ref ]

type stats = {
  rounds : int;
  messages : int;
  max_words : int;
  wakeups : int;
  drops : int;
  crashed_nodes : int;
  severed_links : int;
}

exception Message_too_large of { sender : int; words : int; limit : int }
exception Not_a_neighbor of { sender : int; arc : int }
exception Duplicate_message of { sender : int; target : int }
exception Round_limit_exceeded of { limit : int; partial : stats }

module Metrics = Ultraspan_util.Metrics
module Parallel = Ultraspan_util.Parallel

(* Deterministic metrics, byte-identical across engines (checked by
   test_metrics and the check.sh engine differential).  Engine-internal
   diagnostics — arena occupancy, the oracle's inbox sorts — depend on the
   message plane and are registered under [timing.congest.*], the
   execution namespace excluded from determinism gates. *)
type meters = {
  mon : bool;
  m_deliveries : Metrics.counter;
  m_payload_words : Metrics.counter;
  m_wakeups : Metrics.counter;
  m_drops : Metrics.counter;
  m_rounds : Metrics.counter;
  m_max_payload : Metrics.gauge;
  m_per_round : Metrics.histogram;
}

let meters_of metrics =
  {
    mon = Metrics.live metrics;
    m_deliveries = Metrics.counter metrics "congest.deliveries_total";
    m_payload_words = Metrics.counter metrics "congest.payload_words_total";
    m_wakeups = Metrics.counter metrics "congest.wakeups_total";
    m_drops = Metrics.counter metrics "congest.drops_total";
    m_rounds = Metrics.counter metrics "congest.rounds_total";
    m_max_payload = Metrics.gauge metrics "congest.max_payload_words";
    m_per_round = Metrics.histogram metrics "congest.deliveries_per_round";
  }

(* Both engines share the exact same observable behaviour: same states,
   same stats, same fault-RNG consumption order (node order, then send
   order) and same trace-hook call sequence.  The differential test-suite
   (test/test_engine_diff.ml) checks this bit-for-bit.  The run skeleton
   below — start, round prologue and epilogue, stats — is shared, so the
   engines differ only in how a round steps nodes and moves messages. *)

(* Running totals behind [stats]; the fault counters live in the injector. *)
type totals = {
  mutable t_rounds : int;
  mutable t_msgs : int;
  mutable t_maxw : int;
  mutable t_wake : int;
}

let stats_now ?faults t =
  let drops, crashed_nodes, severed_links =
    match faults with
    | None -> (0, 0, 0)
    | Some f -> (Faults.drops f, Faults.crashed_nodes f, Faults.severed_links f)
  in
  {
    rounds = t.t_rounds;
    messages = t.t_msgs;
    max_words = t.t_maxw;
    wakeups = t.t_wake;
    drops;
    crashed_nodes;
    severed_links;
  }

let start ?faults ?trace n =
  (match faults with Some f -> Faults.start f ~n | None -> ());
  (match trace with Some tr -> Trace.start tr ~n | None -> ());
  { t_rounds = 0; t_msgs = 0; t_maxw = 0; t_wake = 0 }

(* Round prologue: enforce the round limit, then open the round on the
   fault schedule (and report its counters to the trace). *)
let begin_round ~max_rounds ?faults ?trace t =
  if t.t_rounds >= max_rounds then
    raise (Round_limit_exceeded { limit = max_rounds; partial = stats_now ?faults t });
  match faults with
  | Some f ->
      Faults.begin_round f ~round:t.t_rounds;
      Option.iter
        (fun tr ->
          Trace.note_fault_counters tr ~crashed:(Faults.crashed_nodes f)
            ~severed:(Faults.severed_links f))
        trace
  | None -> ()

(* Round epilogue: close the trace round, record the round metrics
   ([sent] is the message total at the round's start). *)
let end_round ?trace mm t ~sent ~halted =
  (match trace with
  | Some tr -> Trace.end_round tr ~round:t.t_rounds ~halted:(halted ())
  | None -> ());
  if mm.mon then begin
    Metrics.incr mm.m_rounds;
    Metrics.observe mm.m_per_round (t.t_msgs - sent)
  end;
  t.t_rounds <- t.t_rounds + 1

let note_drop ?trace mm =
  Metrics.incr mm.m_drops;
  match trace with Some tr -> Trace.note_drop tr | None -> ()

(* ---------- the program interface ----------

   Each engine keeps its own mailbox representation: [`Fast]'s cursor is
   the arc whose slot holds the message, [`Ref]'s indexes a sorted array
   of the original list loop's messages. *)

(* The [`Fast] message plane: one [word_limit]-word slot per arc in a flat
   off-heap arena (the message [s -> t] lands at the arc [t -> s], in
   [t]'s slice), its payload length and the round it was delivered in;
   per node, the round it last received mail in.  These four are
   double-buffered by round parity: entry [2i + (r land 1)] of arc or node
   [i] is written in round [r] and read in round [r + 1], so a node reads
   last round's messages while its neighbours already write this round's.
   Stamps distinguish rounds by value, so nothing is cleared between
   rounds. *)
type plane = {
  words : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  plen : int array;  (* 2 * arcs *)
  stamp : int array;  (* 2 * arcs: the round the slot was delivered in *)
  mail : int array;  (* 2 * n: the round the node last received in *)
  sent : int array;  (* arcs: the round the sender's arc last sent in *)
}

(* A plane outlives its run: each domain keeps the last one it used and
   lends it to its next run if it is large enough (a run nested in
   another on the same domain finds none and makes its own).  A fresh
   plane per run is a handful of large blocks per run; that churn alone
   nearly doubled the peak RSS of a perfbench [simulate] process
   (EXPERIMENTS.md, B6). *)
let spare = Domain.DLS.new_key (fun () -> ref None)

let take_plane ~arcs ~n ~words =
  let cell = Domain.DLS.get spare in
  let p =
    match !cell with
    | Some p
      when Bigarray.Array1.dim p.words >= words
           && Array.length p.sent >= arcs && Array.length p.mail >= 2 * n ->
        p
    | old ->
        (* grow every dimension, never shrink one *)
        let at_least f x = match old with Some p -> max (f p) x | None -> x in
        let arcs = at_least (fun p -> Array.length p.sent) arcs
        and n = at_least (fun p -> Array.length p.mail / 2) n in
        {
          words =
            Bigarray.Array1.create Bigarray.int Bigarray.c_layout
              (at_least (fun p -> Bigarray.Array1.dim p.words) words);
          plen = Array.make (2 * arcs) 0;
          stamp = Array.make (2 * arcs) 0;
          mail = Array.make (2 * n) 0;
          sent = Array.make arcs 0;
        }
  in
  cell := None;
  (* -2 never equals a previous round [r - 1 >= -1]; -1 marks an arc that
     has not sent yet. *)
  Array.fill p.stamp 0 (2 * arcs) (-2);
  Array.fill p.mail 0 (2 * n) (-2);
  Array.fill p.sent 0 arcs (-1);
  p

let give_back p = Domain.DLS.get spare := Some p

(* One per shard of the [`Fast] engine: the plane, the node being stepped
   and the shard's running counts. *)
type fast = {
  p : plane;
  dst : int array;
  rev : int array;
  stride : int;  (* = word_limit *)
  faults : Faults.t option;
  trace : Trace.t option;
  mm : meters;
  mutable me : int;
  mutable lo : int;  (* [me]'s arc slice is [lo, hi) *)
  mutable hi : int;
  mutable r : int;
  mutable a_msgs : int;  (* messages delivered by this shard's senders *)
  mutable a_words : int;  (* their summed payload words *)
  mutable a_wake : int;
  mutable a_maxw : int;
  mutable a_halt : int;  (* halted-count delta *)
  mutable a_slots : int;  (* send arcs used for the first time *)
  mutable a_fail : (exn * Printexc.raw_backtrace) option;
      (* first exception in (node, send) order *)
}

type message = { from : int; at : int; pl : int array }  (* sender, arc *)

type reference = {
  mutable inbox : message array;
  mutable post : int -> int array -> unit;
}

type mailbox = Fast of fast | Ref of reference
type 'a step = { state : 'a; halt : bool }

type 'a program = {
  init : Graph.t -> int -> 'a;
  round : Graph.t -> round:int -> me:int -> 'a -> mailbox -> 'a step;
}

(* The read-buffer index of arc or node [i]. *)
let[@inline] last b i = (2 * i) + ((b.r + 1) land 1)

let fold mb f acc =
  let acc = ref acc in
  (match mb with
  | Fast b ->
      for a = b.lo to b.hi - 1 do
        if Array.unsafe_get b.p.stamp (last b a) = b.r - 1 then acc := f !acc a
      done
  | Ref x ->
      for c = 0 to Array.length x.inbox - 1 do
        acc := f !acc c
      done);
  !acc

let sender mb c = match mb with Fast b -> b.dst.(c) | Ref x -> x.inbox.(c).from
let arc mb c = match mb with Fast _ -> c | Ref x -> x.inbox.(c).at

let length mb c =
  match mb with
  | Fast b -> b.p.plen.(last b c)
  | Ref x -> Array.length x.inbox.(c).pl

let word mb c i =
  match mb with
  | Fast b ->
      let slot = last b c in
      if i < 0 || i >= b.p.plen.(slot) then invalid_arg "Network.word";
      Bigarray.Array1.unsafe_get b.p.words ((slot * b.stride) + i)
  | Ref x -> x.inbox.(c).pl.(i)

(* Validation order, shared by both engines: neighbour, duplicate, size,
   faults.  Model violations are program bugs and raise even under
   faults. *)
let send_fast b arc pl =
  let me = b.me and p = b.p and r = b.r in
  if arc < b.lo || arc >= b.hi then raise (Not_a_neighbor { sender = me; arc });
  let target = Array.unsafe_get b.dst arc in
  let prev = Array.unsafe_get p.sent arc in
  if prev = r then raise (Duplicate_message { sender = me; target })
    (* one message per neighbour per round *);
  if prev < 0 then b.a_slots <- b.a_slots + 1;
  Array.unsafe_set p.sent arc r;
  let words = Array.length pl in
  if words > b.stride then
    raise (Message_too_large { sender = me; words; limit = b.stride });
  if words > b.a_maxw then b.a_maxw <- words;
  let delivered =
    match b.faults with
    | None -> true
    | Some f -> Faults.deliver f ~round:r ~sender:me ~target
  in
  if delivered then begin
    (match b.trace with
    | Some tr -> Trace.note_send tr ~sender:me ~target ~words
    | None -> ());
    let slot = (2 * Array.unsafe_get b.rev arc) + (r land 1) in
    let base = slot * b.stride in
    for i = 0 to words - 1 do
      Bigarray.Array1.unsafe_set p.words (base + i) (Array.unsafe_get pl i)
    done;
    Array.unsafe_set p.plen slot words;
    Array.unsafe_set p.stamp slot r;
    Array.unsafe_set p.mail ((2 * target) + (r land 1)) r;
    b.a_msgs <- b.a_msgs + 1;
    b.a_words <- b.a_words + words
  end
  else note_drop ?trace:b.trace b.mm

let send mb ~arc pl =
  match mb with Fast b -> send_fast b arc pl | Ref x -> x.post arc pl

(* ---------- reference engine (the original list-based loop) ---------- *)

let run_ref ~max_rounds ~word_limit ?faults ?trace ~metrics g prog =
  let n = Graph.n g in
  let { Graph.off; dst; _ } = Graph.csr g in
  let t = start ?faults ?trace n in
  let mm = meters_of metrics in
  let m_sorts = Metrics.counter metrics "timing.congest.ref.inbox_sorts" in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  (* pending.(v): messages to deliver to v next round, as (sender, payload),
     accumulated in reverse. *)
  let pending = Array.make n [] in
  let has_pending = ref true (* round 0 runs everyone *) in
  let halted_now () = Array.fold_left (fun a h -> if h then a + 1 else a) 0 halted in
  let box = { inbox = [||]; post = (fun _ _ -> ()) } in
  while !has_pending || not (Array.for_all Fun.id halted) do
    begin_round ~max_rounds ?faults ?trace t;
    let r = t.t_rounds and sent = t.t_msgs in
    (* Collect this round's inboxes and clear pending. *)
    let inboxes =
      Array.map
        (fun msgs ->
          (match msgs with [] -> () | _ -> Metrics.incr m_sorts);
          List.sort compare (List.rev msgs))
        pending
    in
    Array.fill pending 0 n [];
    has_pending := false;
    for v = 0 to n - 1 do
      let inbox = inboxes.(v) in
      match faults with
      | Some f when Faults.is_crashed f v ->
          (* Crash-stop: a crashed node takes no step and its in-flight
             messages are lost. *)
          List.iter
            (fun (sender, _) ->
              Faults.drop_in_flight f ~round:r ~sender ~target:v;
              note_drop ?trace mm)
            inbox;
          halted.(v) <- true
      | _ ->
          if (not halted.(v)) || inbox <> [] then begin
            t.t_wake <- t.t_wake + 1;
            Metrics.incr mm.m_wakeups;
            (match trace with Some tr -> Trace.note_step tr | None -> ());
            box.inbox <-
              Array.of_list
                (List.map
                   (fun (s, pl) -> { from = s; at = Graph.arc_index g v s; pl })
                   inbox);
            let seen_targets = Hashtbl.create 8 in
            box.post <-
              (fun arc payload ->
                if arc < off.(v) || arc >= off.(v + 1) then
                  raise (Not_a_neighbor { sender = v; arc });
                let target = dst.(arc) in
                if Hashtbl.mem seen_targets target then
                  raise (Duplicate_message { sender = v; target })
                  (* one message per neighbour per round *);
                Hashtbl.replace seen_targets target ();
                let words = Array.length payload in
                if words > word_limit then
                  raise (Message_too_large { sender = v; words; limit = word_limit });
                if words > t.t_maxw then t.t_maxw <- words;
                Metrics.set_max mm.m_max_payload words;
                let delivered =
                  match faults with
                  | None -> true
                  | Some f -> Faults.deliver f ~round:r ~sender:v ~target
                in
                if delivered then begin
                  t.t_msgs <- t.t_msgs + 1;
                  Metrics.incr mm.m_deliveries;
                  Metrics.add mm.m_payload_words words;
                  (match trace with
                  | Some tr -> Trace.note_send tr ~sender:v ~target ~words
                  | None -> ());
                  pending.(target) <- (v, Array.copy payload) :: pending.(target);
                  has_pending := true
                end
                else note_drop ?trace mm);
            let step = prog.round g ~round:r ~me:v states.(v) (Ref box) in
            states.(v) <- step.state;
            halted.(v) <- step.halt
          end
    done;
    end_round ?trace mm t ~sent ~halted:halted_now
  done;
  (states, stats_now ?faults t)

(* ---------- fast engine (CSR slot message plane, sharded rounds) ----------

   Sends go straight into the arc slots of the plane above.  A sender's
   slot in its target's slice is unique, so duplicate detection is a
   stamp check on the sender's own arc (no per-step hash table); each
   slice is sorted by destination, so the read cursor walks the inbox in
   sender order (no per-round sort); and because the plane persists
   across rounds there is no per-round or per-message allocation.  Halted
   nodes and in-flight messages are tracked by counters, replacing the
   reference engine's O(n) quiescence scan.

   The node range is cut into [Parallel.block_count n] shards — a fixed
   function of [n], never of the job count — and each round is one pool
   section: every shard steps its nodes in increasing order, reading the
   previous round's buffer and writing the current one.  A slot is
   written only by its unique sender, so the only cross-shard writes are
   the receivers' mail stamps — racy same-value stores whose reads all
   happen after the next barrier.  Counts go to a per-shard accumulator,
   folded on the caller in shard-index (= node) order after the barrier.

   Fault injection consumes its RNG in (node, send) order and trace hooks
   record one global sequence, so with [?faults] or [?trace] attached the
   shards run in node order on the caller ([jobs = 1]); otherwise they fan
   out over [?jobs] domains.  Either way every observable is per-node
   state or a shard-ordered fold, so the run is byte-identical for every
   job count. *)

let run_sharded ~max_rounds ~word_limit ?faults ?trace ~metrics ?jobs g prog =
  let n = Graph.n g in
  let t = start ?faults ?trace n in
  let mm = meters_of metrics in
  (* [arena_slots_touched] counts send arcs used for the first time, i.e.
     the arena high-water mark. *)
  let m_arena_slots = Metrics.counter metrics "timing.congest.arena_slots_touched" in
  let m_arena_words = Metrics.counter metrics "timing.congest.arena_words_written" in
  let hooked = Option.is_some faults || Option.is_some trace in
  let jobs = if hooked then Some 1 else jobs in
  (* Raw CSR arrays: the loops below run once per message and cannot
     afford a cross-module call per arc. *)
  let { Graph.off; dst; rev; _ } = Graph.csr g in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let arcs = max 1 (Graph.arc_count g) in
  let p = take_plane ~arcs ~n ~words:(2 * arcs * word_limit) in
  let nshards = Parallel.block_count n in
  let boxes =
    Array.init nshards (fun _ ->
        { p; dst; rev; stride = word_limit; faults; trace; mm; me = 0; lo = 0;
          hi = 0; r = 0; a_msgs = 0;
          a_words = 0; a_wake = 0; a_maxw = 0; a_halt = 0; a_slots = 0;
          a_fail = None })
  in
  let mailboxes = Array.map (fun b -> Fast b) boxes in
  (* Set once a hooked (caller-scheduled) run fails, so later shards do
     not step nodes the reference engine would never have reached.
     Written only under that schedule, where shards run one after another,
     so never raced. *)
  let aborted = ref false in
  let pending_msgs = ref 0 in
  (* Step node [v] (or apply its crash), sending through shard [s]. *)
  let step_node s v =
    let b = boxes.(s) and r = boxes.(s).r in
    b.me <- v;
    b.lo <- off.(v);
    b.hi <- off.(v + 1);
    let mailed = Array.unsafe_get p.mail (last b v) = r - 1 in
    match faults with
    | Some f when Faults.is_crashed f v ->
        if mailed then
          fold mailboxes.(s)
            (fun () a ->
              Faults.drop_in_flight f ~round:r ~sender:dst.(a) ~target:v;
              note_drop ?trace mm)
            ();
        if not halted.(v) then begin
          halted.(v) <- true;
          b.a_halt <- b.a_halt + 1
        end
    | _ ->
        if (not (Array.unsafe_get halted v)) || mailed then begin
          b.a_wake <- b.a_wake + 1;
          (match trace with Some tr -> Trace.note_step tr | None -> ());
          let step = prog.round g ~round:r ~me:v states.(v) mailboxes.(s) in
          states.(v) <- step.state;
          if halted.(v) <> step.halt then begin
            halted.(v) <- step.halt;
            b.a_halt <- (b.a_halt + if step.halt then 1 else -1)
          end
        end
  in
  let run_shard s lo hi =
    if not !aborted then
      let b = boxes.(s) in
      try
        for v = lo to hi - 1 do
          step_node s v
        done
      with e ->
        b.a_fail <- Some (e, Printexc.get_raw_backtrace ());
        if hooked then aborted := true
  in
  while !pending_msgs > 0 || !halted_count < n do
    begin_round ~max_rounds ?faults ?trace t;
    let r = t.t_rounds and sent = t.t_msgs in
    Array.iter (fun b -> b.r <- r) boxes;
    pending_msgs := 0;
    Parallel.iter_blocks ?jobs ~counted:false n run_shard;
    (* Fold the shard accumulators in shard-index (= node) order.  On a
       failure, shards past the failing one are discarded, so the registry
       and the raised exception match the reference engine's byte-for-byte
       (it would never have reached those nodes). *)
    let fail = ref None and s = ref 0 in
    while Option.is_none !fail && !s < nshards do
      let a = boxes.(!s) in
      t.t_msgs <- t.t_msgs + a.a_msgs;
      t.t_wake <- t.t_wake + a.a_wake;
      if a.a_maxw > t.t_maxw then t.t_maxw <- a.a_maxw;
      halted_count := !halted_count + a.a_halt;
      pending_msgs := !pending_msgs + a.a_msgs;
      if mm.mon then begin
        Metrics.add mm.m_deliveries a.a_msgs;
        Metrics.add mm.m_payload_words a.a_words;
        Metrics.add mm.m_wakeups a.a_wake;
        Metrics.set_max mm.m_max_payload a.a_maxw;
        Metrics.add m_arena_slots a.a_slots;
        Metrics.add m_arena_words a.a_words
      end;
      fail := a.a_fail;
      a.a_msgs <- 0;
      a.a_words <- 0;
      a.a_wake <- 0;
      a.a_maxw <- 0;
      a.a_halt <- 0;
      a.a_slots <- 0;
      incr s
    done;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !fail;
    end_round ?trace mm t ~sent ~halted:(fun () -> !halted_count)
  done;
  give_back p;
  (states, stats_now ?faults t)

let run ?max_rounds ?(word_limit = 4) ?faults ?trace
    ?(metrics = Metrics.disabled) ?(engine = `Fast) ?jobs g prog =
  let max_rounds =
    match max_rounds with Some r -> r | None -> 100 * (Graph.n g + 1)
  in
  try
    match engine with
    | `Ref -> run_ref ~max_rounds ~word_limit ?faults ?trace ~metrics g prog
    | `Fast -> run_sharded ~max_rounds ~word_limit ?faults ?trace ~metrics ?jobs g prog
  with e ->
    (* Every aborted run leaves a partial registry, whatever the engine. *)
    let bt = Printexc.get_raw_backtrace () in
    Metrics.mark_partial metrics;
    Printexc.raise_with_backtrace e bt
