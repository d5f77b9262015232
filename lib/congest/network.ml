open! Import

type inbox = (int * int array) list
type outbox = (int * int array) list
type 'a step = { state : 'a; out : outbox; halt : bool }

type 'a program = {
  init : Graph.t -> int -> 'a;
  round : Graph.t -> round:int -> me:int -> 'a -> inbox -> 'a step;
}

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
exception Not_a_neighbor of { sender : int; target : int }
exception Duplicate_message of { sender : int; target : int }
exception Round_limit_exceeded of { limit : int; partial : stats }

module Metrics = Ultraspan_util.Metrics
module Parallel = Ultraspan_util.Parallel

(* Flat payload arena of the fast engine: one [word_limit]-word region per
   arc in an off-heap Bigarray, plus a per-arc length.  Sending copies the
   payload words in; inbox assembly materializes a fresh [int array] per
   delivered message.  Compared to a boxed [int array array] arena this
   removes the 2m-pointer array the GC had to trace every major cycle and
   the unbounded retention of stale payloads. *)
type arena = {
  words : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  plen : int array;  (* per-slot payload length *)
  stride : int;  (* = word_limit; slot [a] occupies [a*stride ..) *)
}

let make_arena ~arcs ~word_limit =
  {
    words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (arcs * word_limit);
    plen = Array.make (max 1 arcs) 0;
    stride = word_limit;
  }

let[@inline] arena_write ar slot pl words =
  let b = slot * ar.stride in
  for i = 0 to words - 1 do
    Bigarray.Array1.unsafe_set ar.words (b + i) (Array.unsafe_get pl i)
  done;
  Array.unsafe_set ar.plen slot words

let[@inline] arena_read ar slot =
  let words = Array.unsafe_get ar.plen slot in
  let pl = Array.make words 0 in
  let b = slot * ar.stride in
  for i = 0 to words - 1 do
    Array.unsafe_set pl i (Bigarray.Array1.unsafe_get ar.words (b + i))
  done;
  pl

(* Deterministic metrics, byte-identical across engines (checked by
   test_metrics and the check.sh engine differential).  Engine-internal
   diagnostics — arena occupancy, inbox sorts — depend on the message
   plane and are registered under [timing.congest.*], the execution
   namespace excluded from determinism gates. *)
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
   same stats, same fault-RNG consumption order (node order, then outbox
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

(* Crash-stop: a crashed node takes no step and its in-flight messages are
   lost. *)
let drop_inbox f ?trace mm ~round ~target inbox =
  List.iter
    (fun (sender, _) ->
      Faults.drop_in_flight f ~round ~sender ~target;
      note_drop ?trace mm)
    inbox

(* ---------- reference engine (the original list-based loop) ---------- *)

let run_ref ~max_rounds ~word_limit ?faults ?trace ~metrics g prog =
  let n = Graph.n g in
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
          drop_inbox f ?trace mm ~round:r ~target:v inbox;
          halted.(v) <- true
      | _ ->
          if (not halted.(v)) || inbox <> [] then begin
            t.t_wake <- t.t_wake + 1;
            Metrics.incr mm.m_wakeups;
            (match trace with Some tr -> Trace.note_step tr | None -> ());
            let step = prog.round g ~round:r ~me:v states.(v) inbox in
            states.(v) <- step.state;
            halted.(v) <- step.halt;
            (* Validate and enqueue outgoing messages.  Model violations
               (non-neighbour targets, duplicates, oversized payloads) are
               program bugs and raise even under faults. *)
            let seen_targets = Hashtbl.create 8 in
            List.iter
              (fun (target, payload) ->
                if not (Graph.mem_edge g v target) then
                  raise (Not_a_neighbor { sender = v; target });
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
                  pending.(target) <- (v, payload) :: pending.(target);
                  has_pending := true
                end
                else note_drop ?trace mm)
              step.out
          end
    done;
    end_round ?trace mm t ~sent ~halted:halted_now
  done;
  (states, stats_now ?faults t)

(* ---------- fast engine (CSR slot message plane, sharded rounds) ----------

   One inbox slot per directed arc of the graph's CSR index: the message
   [s -> t] lands in the arc [t -> s] (found by an ascending cursor over the
   sender's sorted adjacency, with a binary-search fallback, plus an O(1)
   reverse-arc hop).  Because a sender's slot in its target's inbox is
   unique, duplicate detection is a slot-stamp check (no per-step hash
   table); because each vertex's arcs are sorted by destination, scanning
   the occupied slots of a receiver yields the inbox already sorted by
   sender (no per-round [List.sort]); and because the payload arena and
   stamps persist across rounds there is no per-round O(n) allocation —
   stamps distinguish rounds by value, so nothing is ever cleared.  Halted
   nodes and in-flight messages are tracked by counters, replacing the
   reference engine's O(n) quiescence scan.

   The node range is cut into [Parallel.block_count n] shards — a fixed
   function of [n], never of the job count — and each round runs as two
   pool sections with a barrier between them:

   phase 1 (assembly): every shard scans its receivers' dirty flags and
   materializes inboxes from the slots stamped last round.  Writes are
   per-receiver, reads are arena slots written last round — the previous
   barrier ordered them.

   phase 2 (step + send): every shard steps its nodes, in increasing order,
   and delivers into the arena.  A slot is written only by its unique
   sender, so the only cross-shard writes are the receiver dirty flags —
   racy same-value byte stores whose reads all happen after the next
   barrier.  Counts go to a per-shard accumulator, folded on the caller in
   shard-index (= node) order after the barrier.

   Only the schedule of phase 2 varies.  Fault injection consumes its RNG
   in (node, outbox) order and trace hooks record one global sequence, so
   with [?faults] or [?trace] attached the shards run in node order on the
   caller ([jobs = 1]); otherwise they fan out over [?jobs] domains.  Either
   way every observable is per-node state or a shard-ordered fold, so the
   run is byte-identical for every job count. *)

type shard = {
  mutable a_msgs : int;  (* messages delivered by this shard's senders *)
  mutable a_words : int;  (* their summed payload words *)
  mutable a_wake : int;
  mutable a_maxw : int;
  mutable a_halt : int;  (* halted-count delta *)
  mutable a_slots : int;  (* arena slot first-touches *)
  mutable a_fail : (exn * Printexc.raw_backtrace) option;
      (* first exception in (node, outbox) order *)
}

(* Arc of [v -> target] in [v]'s sorted arc slice [base, stop): an
   ascending scan from the cursor [from] (outboxes usually come in
   adjacency order, so this is O(1) amortized), else a binary search of
   the whole slice; -1 when [target] is not a neighbour.  A scan miss
   means [target] is absent from [from, stop), so a fallback hit always
   lies before [from]. *)
let find_arc (dst : int array) ~base ~stop ~from (target : int) =
  let c = ref from in
  while !c < stop && Array.unsafe_get dst !c < target do
    incr c
  done;
  if !c < stop && Array.unsafe_get dst !c = target then !c
  else begin
    let lo = ref base and hi = ref (stop - 1) in
    let res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let d = Array.unsafe_get dst mid in
      if d = target then res := mid
      else if d < target then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  end

let run_sharded ~max_rounds ~word_limit ?faults ?trace ~metrics ?jobs g prog =
  let n = Graph.n g in
  let t = start ?faults ?trace n in
  let mm = meters_of metrics in
  (* [arena_slots_touched] counts first touches of send slots, i.e. the
     arena high-water mark. *)
  let m_arena_slots = Metrics.counter metrics "timing.congest.arena_slots_touched" in
  let m_arena_words = Metrics.counter metrics "timing.congest.arena_words_written" in
  let hooked = Option.is_some faults || Option.is_some trace in
  let step_jobs = if hooked then Some 1 else jobs in
  (* Raw CSR arrays: the loops below run once per message and cannot
     afford a cross-module call per arc. *)
  let { Graph.off; dst; rev; _ } = Graph.csr g in
  let states = Array.init n (fun v -> prog.init g v) in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let arcs = Graph.arc_count g in
  (* Message plane: flat payload arena + stamps, one slot per arc.  A slot
     is "occupied for round r" iff its stamp equals r; stale stamps from
     earlier rounds never collide because rounds increase strictly. *)
  let arena = make_arena ~arcs ~word_limit in
  let delivered_stamp = Array.make (max 1 arcs) (-1) in
  let sent_stamp = Array.make (max 1 arcs) (-1) in
  let dirty = Bytes.make (max 1 n) '\000' in
  let inboxes : inbox array = Array.make n [] in
  let nshards = Parallel.block_count n in
  let accs =
    Array.init nshards (fun _ ->
        {
          a_msgs = 0;
          a_words = 0;
          a_wake = 0;
          a_maxw = 0;
          a_halt = 0;
          a_slots = 0;
          a_fail = None;
        })
  in
  (* Set once a hooked (caller-scheduled) run fails, so later shards do
     not step nodes the reference engine would never have reached.
     Written only under that schedule, where shards run one after another,
     so never raced. *)
  let aborted = ref false in
  let pending_msgs = ref 0 in
  (* Deliver [v]'s outbox in round [r], counting into [acc]; [from] is the
     ascending cursor into [v]'s arc slice [base, stop).  Validation order
     matches the reference engine: neighbour, duplicate, size, faults. *)
  let rec send acc r v base stop from = function
    | [] -> ()
    | (target, pl) :: rest ->
        let arc = find_arc dst ~base ~stop ~from target in
        if arc < 0 then raise (Not_a_neighbor { sender = v; target });
        let slot = Array.unsafe_get rev arc in
        let stamp = Array.unsafe_get sent_stamp slot in
        if stamp = r then raise (Duplicate_message { sender = v; target })
          (* one message per neighbour per round *);
        if stamp < 0 then acc.a_slots <- acc.a_slots + 1;
        Array.unsafe_set sent_stamp slot r;
        let words = Array.length pl in
        if words > word_limit then
          raise (Message_too_large { sender = v; words; limit = word_limit });
        if words > acc.a_maxw then acc.a_maxw <- words;
        let delivered =
          match faults with
          | None -> true
          | Some f -> Faults.deliver f ~round:r ~sender:v ~target
        in
        if delivered then begin
          (match trace with
          | Some tr -> Trace.note_send tr ~sender:v ~target ~words
          | None -> ());
          arena_write arena slot pl words;
          Array.unsafe_set delivered_stamp slot r;
          Bytes.unsafe_set dirty target '\001';
          acc.a_msgs <- acc.a_msgs + 1;
          acc.a_words <- acc.a_words + words
        end
        else note_drop ?trace mm;
        send acc r v base stop (if arc >= from then arc + 1 else from) rest
  in
  (* Step node [v] in round [r] (or apply its crash) and deliver. *)
  let step_node acc r v =
    let inbox = inboxes.(v) in
    (match faults with
    | Some f when Faults.is_crashed f v ->
        drop_inbox f ?trace mm ~round:r ~target:v inbox;
        if not halted.(v) then begin
          halted.(v) <- true;
          acc.a_halt <- acc.a_halt + 1
        end
    | _ ->
        if (not (Array.unsafe_get halted v)) || inbox <> [] then begin
          acc.a_wake <- acc.a_wake + 1;
          (match trace with Some tr -> Trace.note_step tr | None -> ());
          let step = prog.round g ~round:r ~me:v states.(v) inbox in
          states.(v) <- step.state;
          if halted.(v) <> step.halt then begin
            halted.(v) <- step.halt;
            acc.a_halt <- (acc.a_halt + if step.halt then 1 else -1)
          end;
          send acc r v off.(v) off.(v + 1) off.(v) step.out
        end);
    match inbox with [] -> () | _ -> inboxes.(v) <- []
  in
  let run_shard r s lo hi =
    if not !aborted then
      let acc = accs.(s) in
      try
        for v = lo to hi - 1 do
          step_node acc r v
        done
      with e ->
        acc.a_fail <- Some (e, Printexc.get_raw_backtrace ());
        if hooked then aborted := true
  in
  while !pending_msgs > 0 || !halted_count < n do
    begin_round ~max_rounds ?faults ?trace t;
    let r = t.t_rounds and sent = t.t_msgs in
    (* Phase 1: assemble inboxes of the receivers flagged dirty last round.
       Scanning the arc slice backwards conses ascending sender order.
       Stale words are left in the arena (occupancy is governed by the
       stamps alone); each delivered message materializes as a fresh array
       here, so nothing in the arena is ever reachable from a state. *)
    pending_msgs := 0;
    Parallel.iter_blocks ?jobs ~counted:false n (fun _ lo hi ->
        for v = lo to hi - 1 do
          if Bytes.unsafe_get dirty v <> '\000' then begin
            Bytes.unsafe_set dirty v '\000';
            let acc = ref [] in
            for a = off.(v + 1) - 1 downto off.(v) do
              if Array.unsafe_get delivered_stamp a = r - 1 then
                acc := (Array.unsafe_get dst a, arena_read arena a) :: !acc
            done;
            inboxes.(v) <- !acc
          end
        done);
    (* Phase 2: step and deliver. *)
    Parallel.iter_blocks ?jobs:step_jobs ~counted:false n (run_shard r);
    (* Fold the shard accumulators in shard-index (= node) order.  On a
       failure, shards past the failing one are discarded, so the registry
       and the raised exception match the reference engine's byte-for-byte
       (it would never have reached those nodes). *)
    let fail = ref None and s = ref 0 in
    while Option.is_none !fail && !s < nshards do
      let a = accs.(!s) in
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
