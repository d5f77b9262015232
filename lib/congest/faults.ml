open! Import
module Rng = Util.Rng

type spec = {
  crashes : (int * int) list;
  link_failures : (int * int * int) list;
  drop_prob : float;
  seed : int;
}

let empty = { crashes = []; link_failures = []; drop_prob = 0.0; seed = 0 }

let crash ~round node spec =
  if round < 0 then invalid_arg "Faults.crash: negative round";
  if node < 0 then invalid_arg "Faults.crash: negative node";
  { spec with crashes = (round, node) :: spec.crashes }

let sever ~round u v spec =
  if round < 0 then invalid_arg "Faults.sever: negative round";
  if u < 0 || v < 0 || u = v then invalid_arg "Faults.sever: bad endpoints";
  { spec with link_failures = (round, min u v, max u v) :: spec.link_failures }

let with_drops ?seed p spec =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Faults.with_drops: probability outside [0, 1]";
  let seed = match seed with Some s -> s | None -> spec.seed in
  { spec with drop_prob = p; seed }

(* [count] distinct draws from [0, bound) by rejection (count <= bound). *)
let distinct ~rng ~bound ~count who =
  if count < 0 || count > bound then
    invalid_arg (Printf.sprintf "Faults.%s: count outside [0, %d]" who bound);
  let seen = Hashtbl.create (2 * count) in
  let picked = ref [] in
  while Hashtbl.length seen < count do
    let x = Rng.int rng bound in
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      picked := x :: !picked
    end
  done;
  List.rev !picked

let random_crashes ~rng ~n ~within ~count spec =
  let nodes = distinct ~rng ~bound:n ~count "random_crashes" in
  List.fold_left
    (fun spec node -> crash ~round:(Rng.int rng (within + 1)) node spec)
    spec nodes

let random_link_failures ~rng g ~within ~count spec =
  let eids = distinct ~rng ~bound:(Graph.m g) ~count "random_link_failures" in
  List.fold_left
    (fun spec eid ->
      let u, v = Graph.endpoints g eid in
      sever ~round:(Rng.int rng (within + 1)) u v spec)
    spec eids

let to_update_stream g spec =
  let n = Graph.n g in
  let check_node who v =
    if v < 0 || v >= n then
      invalid_arg
        (Printf.sprintf "Faults.to_update_stream: %s node %d outside [0, %d)"
           who v n)
  in
  List.iter (fun (_, v) -> check_node "crashed" v) spec.crashes;
  List.iter
    (fun (_, u, v) ->
      check_node "severed-link" u;
      check_node "severed-link" v)
    spec.link_failures;
  let dead = Hashtbl.create 64 in
  (* delete the (u, v) edge unless it is absent or already gone *)
  let kill u v acc =
    let key = (min u v, max u v) in
    if Hashtbl.mem dead key || not (Graph.mem_edge g u v) then acc
    else begin
      Hashtbl.add dead key ();
      key :: acc
    end
  in
  let module Is = Set.Make (Int) in
  let rounds =
    Is.elements
      (List.fold_left
         (fun s (r, _, _) -> Is.add r s)
         (List.fold_left (fun s (r, _) -> Is.add r s) Is.empty spec.crashes)
         spec.link_failures)
  in
  List.filter_map
    (fun round ->
      let dels = ref [] in
      List.iter
        (fun (r, u, v) -> if r = round then dels := kill u v !dels)
        (List.sort compare spec.link_failures);
      List.iter
        (fun (r, node) ->
          if r = round then
            Graph.iter_adj g node (fun u _ -> dels := kill node u !dels))
        (List.sort compare spec.crashes);
      match List.sort compare !dels with
      | [] -> None
      | dels -> Some (round, dels))
    rounds

let pp ppf spec =
  Format.fprintf ppf "faults(%d crashes, %d link failures, drop %.3f, seed %d)"
    (List.length spec.crashes)
    (List.length spec.link_failures)
    spec.drop_prob spec.seed

type drop_reason = Chance | Link_down | Receiver_crashed

type event =
  | Crash of { round : int; node : int }
  | Sever of { round : int; u : int; v : int }
  | Drop of { round : int; sender : int; target : int; reason : drop_reason }

type t = {
  spec : spec;
  (* schedule sorted by round, consumed from the head as rounds begin *)
  mutable due_crashes : (int * int) list;
  mutable due_severs : (int * int * int) list;
  mutable crashed : bool array;  (* resized by [start] *)
  down : (int * int, unit) Hashtbl.t;
  rng : Rng.t;
  mutable events_rev : event list;
  mutable n_drops : int;
  mutable n_crashed : int;
  mutable n_severed : int;
  mutable started : bool;
}

let make spec =
  let by_round a b = compare a b in
  {
    spec;
    due_crashes = List.sort by_round spec.crashes;
    due_severs = List.sort by_round spec.link_failures;
    crashed = [||];
    down = Hashtbl.create 16;
    rng = Rng.create spec.seed;
    events_rev = [];
    n_drops = 0;
    n_crashed = 0;
    n_severed = 0;
    started = false;
  }

let spec t = t.spec
let events t = List.rev t.events_rev
let drops t = t.n_drops
let crashed_nodes t = t.n_crashed
let severed_links t = t.n_severed

let start t ~n =
  if t.started then
    invalid_arg "Faults.start: injector already used (build a fresh one)";
  t.started <- true;
  let check_node who v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Faults.start: %s node %d outside [0, %d)" who v n)
  in
  List.iter (fun (_, v) -> check_node "crashed" v) t.due_crashes;
  List.iter
    (fun (_, u, v) -> check_node "severed-link" u; check_node "severed-link" v)
    t.due_severs;
  t.crashed <- Array.make n false

let record t e = t.events_rev <- e :: t.events_rev

let begin_round t ~round =
  let rec crashes = function
    | (r, node) :: rest when r <= round ->
        if not t.crashed.(node) then begin
          t.crashed.(node) <- true;
          t.n_crashed <- t.n_crashed + 1;
          record t (Crash { round; node })
        end;
        crashes rest
    | rest -> t.due_crashes <- rest
  in
  crashes t.due_crashes;
  let rec severs = function
    | (r, u, v) :: rest when r <= round ->
        if not (Hashtbl.mem t.down (u, v)) then begin
          Hashtbl.replace t.down (u, v) ();
          t.n_severed <- t.n_severed + 1;
          record t (Sever { round; u; v })
        end;
        severs rest
    | rest -> t.due_severs <- rest
  in
  severs t.due_severs

let is_crashed t v = t.crashed.(v)

let drop t ~round ~sender ~target reason =
  t.n_drops <- t.n_drops + 1;
  record t (Drop { round; sender; target; reason })

let deliver t ~round ~sender ~target =
  if Hashtbl.mem t.down (min sender target, max sender target) then begin
    drop t ~round ~sender ~target Link_down;
    false
  end
  else if t.crashed.(target) then begin
    drop t ~round ~sender ~target Receiver_crashed;
    false
  end
  else if t.spec.drop_prob > 0.0 && Rng.bernoulli t.rng t.spec.drop_prob
  then begin
    drop t ~round ~sender ~target Chance;
    false
  end
  else true

let drop_in_flight t ~round ~sender ~target =
  drop t ~round ~sender ~target Receiver_crashed
