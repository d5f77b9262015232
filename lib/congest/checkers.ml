open! Import

type verdict = { accept : bool array; stats : Network.stats }

let all_accept v = Array.for_all (fun b -> b) v.accept

(* ---------- spanner: detour-walk verification ---------- *)

(* Walk-token payload layout: [| eid; idx; acc; p0; p1; ... |] where
   [idx] is the receiving node's index in the path [p] and [acc] the
   spanner-path weight accumulated up to it.  The path has at most 2k
   vertices (enforced at launch), so a token is at most [2k + 3] words. *)

(* The pending (arc to the next hop, token) pairs are a FIFO queue:
   [sp_front] in order, then [sp_back] newest first. *)
type sp_state = {
  sp_ok : bool;
  sp_front : (int * int array) list;
  sp_back : (int * int array) list;
}

let sp_idle = { sp_ok = true; sp_front = []; sp_back = [] }
let sp_check_failed st = { st with sp_ok = false }
let sp_push st x = { st with sp_back = x :: st.sp_back }

(* [me]'s arc to [u] when their edge is a spanner edge, else -1. *)
let kept_arc g ~keep me u =
  let a = Graph.arc_index g me u in
  if a >= 0 && keep.((Graph.csr g).eid.(a)) then a else -1

(* Send at most one pending token per arc (CONGEST: one message per edge
   per round); the rest stay queued in order. *)
let sp_emit mb st =
  match (st.sp_front, st.sp_back) with
  | [], [] -> (st, true)
  | front, back ->
      let rec go sent kept = function
        | [] -> List.rev kept
        | ((arc, tok) as x) :: rest ->
            if List.mem arc sent then go sent (x :: kept) rest
            else begin
              Network.send mb ~arc tok;
              go (arc :: sent) kept rest
            end
      in
      let kept = go [] [] (front @ List.rev back) in
      (* halt only when nothing is left to push next round *)
      ({ st with sp_front = kept; sp_back = [] }, kept = [])

let sp_launch g ~keep ~k ~detour me =
  let bound_hops = (2 * k) - 1 in
  Graph.fold_adj g me
    (fun st u eid ->
      if me < u && not keep.(eid) then begin
        let p = detour.(eid) in
        let len = Array.length p in
        if len < 2 || p.(0) <> me || p.(len - 1) <> u || len - 1 > bound_hops
        then sp_check_failed st
        else
          let a1 = kept_arc g ~keep me p.(1) in
          if a1 >= 0 then begin
            let tok = Array.make (len + 3) 0 in
            tok.(0) <- eid;
            tok.(1) <- 1;
            tok.(2) <- Graph.weight g (Graph.csr g).eid.(a1);
            Array.blit p 0 tok 3 len;
            sp_push st (a1, tok)
          end
          else sp_check_failed st
      end
      else st)
    sp_idle

let sp_receive g ~keep ~k ~detour me st tok =
  let eid = tok.(0) and idx = tok.(1) and acc = tok.(2) in
  let len = Array.length tok - 3 in
  let path i = tok.(3 + i) in
  if idx < 1 || idx >= len || path idx <> me then sp_check_failed st
  else if idx = len - 1 then begin
    (* Final hop: I must be the far endpoint, the accumulated spanner
       weight must meet the stretch budget, and the delivered path must
       match the copy recorded at my end of the edge. *)
    let eu, ev = Graph.endpoints g eid in
    let mine = detour.(eid) in
    let same_copy =
      Array.length mine = len
      &&
      let ok = ref true in
      for i = 0 to len - 1 do
        if mine.(i) <> path i then ok := false
      done;
      !ok
    in
    if
      path 0 = eu && me = ev
      && acc <= ((2 * k) - 1) * Graph.weight g eid
      && same_copy
    then st
    else sp_check_failed st
  end
  else begin
    (* [tok] is this node's own copy: forward it in place *)
    let a = kept_arc g ~keep me (path (idx + 1)) in
    if a >= 0 then begin
      tok.(1) <- idx + 1;
      tok.(2) <- acc + Graph.weight g (Graph.csr g).eid.(a);
      sp_push st (a, tok)
    end
    else sp_check_failed st
  end

let spanner ?engine ?jobs ?metrics g ~keep ~k ~detour =
  if k < 1 then invalid_arg "Checkers.spanner: k >= 1";
  if Array.length keep <> Graph.m g then
    invalid_arg "Checkers.spanner: keep length mismatch";
  if Array.length detour <> Graph.m g then
    invalid_arg "Checkers.spanner: detour length mismatch";
  let program =
    {
      Network.init = (fun _ _ -> sp_idle);
      round =
        (fun g ~round ~me st mb ->
          let st =
            if round = 0 then sp_launch g ~keep ~k ~detour me else st
          in
          let st =
            Network.fold mb
              (fun st c ->
                let tok = Array.init (Network.length mb c) (Network.word mb c) in
                sp_receive g ~keep ~k ~detour me st tok)
              st
          in
          let st, halt = sp_emit mb st in
          { Network.state = st; halt });
    }
  in
  (* Every round either delivers a token hop or the system is quiescent,
     and there are at most m walks of at most 2k-1 hops each. *)
  let max_rounds = (2 * k * (Graph.m g + 2)) + 4 in
  let word_limit = max 4 ((2 * k) + 3) in
  let states, stats =
    Network.run ~max_rounds ~word_limit ?metrics ?engine ?jobs g
      program
  in
  { accept = Array.map (fun s -> s.sp_ok) states; stats }

(* ---------- certificate: forest-label verification ---------- *)

(* One label exchange, one check round.  The message is my full label
   vector: [| root_1..k; depth_1..k; parent_1..k |] (3k words). *)

let fo_local_ok g ~keep ~k ~forest ~parent ~depth ~root me =
  let ok = ref true in
  for i = 0 to k - 1 do
    let p = parent.(i).(me) and r = root.(i).(me) and d = depth.(i).(me) in
    if p = -1 then begin
      if r <> me || d <> 0 then ok := false
    end
    else if p < 0 || p >= Graph.n g || d < 1 then ok := false
    else
      match Graph.find_edge g me p with
      | Some e -> if forest.(e) <> i + 1 then ok := false
      | None -> ok := false
  done;
  Graph.iter_adj g me (fun _ eid ->
      let l = forest.(eid) in
      if l < 0 || l > k || keep.(eid) <> (l >= 1) then ok := false);
  !ok

(* [c] is the label message that came along edge [eid]. *)
let fo_edge_ok ~k ~forest ~parent ~depth ~root me eid mb c =
  let sender = Network.sender mb c in
  let j = forest.(eid) in
  let ok = ref true in
  (if j >= 1 then begin
     (* Tree-edge rule for the edge's own peel. *)
     let i = j - 1 in
     let r = root.(i).(me) and d = depth.(i).(me) and p = parent.(i).(me) in
     let r' = Network.word mb c i
     and d' = Network.word mb c (k + i)
     and p' = Network.word mb c ((2 * k) + i) in
     if r <> r' then ok := false;
     if not ((p = sender && d = d' + 1) || (p' = me && d' = d + 1)) then
       ok := false
   end);
  (* Maximality rule: endpoints already connected in every earlier peel. *)
  let hi = if j = 0 then k else j - 1 in
  for i = 0 to hi - 1 do
    if root.(i).(me) <> Network.word mb c i then ok := false
  done;
  !ok

let forests ?engine ?jobs ?metrics g ~keep ~k ~forest ~parent ~depth
    ~root =
  if k < 1 then invalid_arg "Checkers.forests: k >= 1";
  if Array.length keep <> Graph.m g then
    invalid_arg "Checkers.forests: keep length mismatch";
  if Array.length forest <> Graph.m g then
    invalid_arg "Checkers.forests: forest length mismatch";
  if
    Array.length parent <> k || Array.length depth <> k
    || Array.length root <> k
  then invalid_arg "Checkers.forests: label arrays must have k rows";
  let { Graph.off; eid; _ } = Graph.csr g in
  let program =
    {
      Network.init = (fun _ _ -> true);
      round =
        (fun g ~round ~me ok mb ->
          if round = 0 then begin
            let ok = fo_local_ok g ~keep ~k ~forest ~parent ~depth ~root me in
            let msg = Array.make (3 * k) 0 in
            for i = 0 to k - 1 do
              msg.(i) <- root.(i).(me);
              msg.(k + i) <- depth.(i).(me);
              msg.((2 * k) + i) <- parent.(i).(me)
            done;
            for a = off.(me) to off.(me + 1) - 1 do
              Network.send mb ~arc:a msg
            done;
            { Network.state = ok; halt = true }
          end
          else begin
            let ok =
              Network.fold mb
                (fun ok c ->
                  ok
                  && fo_edge_ok ~k ~forest ~parent ~depth ~root me
                       eid.(Network.arc mb c) mb c)
                ok
            in
            { Network.state = ok; halt = true }
          end);
    }
  in
  let word_limit = max 4 (3 * k) in
  let states, stats =
    Network.run ~max_rounds:8 ~word_limit ?metrics ?engine ?jobs g
      program
  in
  { accept = states; stats }
