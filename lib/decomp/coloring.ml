open! Import

type result = { colors : int array; iterations : int }

let log_star n =
  let rec go x acc =
    if x <= 1 then acc
    else go (int_of_float (Float.log2 (float_of_int x))) (acc + 1)
  in
  go n 0

(* Break pointer cycles: every cycle must have length exactly 2; root the
   smaller endpoint.  Writes the parent array of the resulting forest into
   [parent]; [state] (length >= n) is scratch. *)
let to_forest_into ~n ~succ parent state =
  if Array.length succ <> n then invalid_arg "Coloring: succ length mismatch";
  Array.iteri
    (fun v s ->
      if s < -1 || s >= n then invalid_arg "Coloring: succ out of range";
      if s = v then invalid_arg "Coloring: self-pointer")
    succ;
  Array.blit succ 0 parent 0 n;
  (* Mutual pairs. *)
  for v = 0 to n - 1 do
    let s = succ.(v) in
    if s >= 0 && succ.(s) = v && v < s then parent.(v) <- -1
  done;
  (* Any remaining cycle is a bug in the caller (see interface).  Each
     walk marks its path 1 (on stack) up to a root or a finished vertex,
     then a second pass over the same path marks it 2 (done). *)
  Array.fill state 0 n 0;
  for v0 = 0 to n - 1 do
    if state.(v0) = 0 then begin
      let v = ref v0 in
      while !v >= 0 && state.(!v) <> 2 do
        if state.(!v) = 1 then
          invalid_arg "Coloring.three_color: pointer cycle longer than 2";
        state.(!v) <- 1;
        v := parent.(!v)
      done;
      let v = ref v0 in
      while !v >= 0 && state.(!v) = 1 do
        state.(!v) <- 2;
        v := parent.(!v)
      done
    end
  done

let to_forest ~n ~succ =
  let parent = Array.make n 0 in
  to_forest_into ~n ~succ parent (Array.make n 0);
  parent

let lowest_differing_bit a b =
  let x = a lxor b in
  if x = 0 then invalid_arg "Coloring: equal colors on an edge";
  let rec go i = if (x lsr i) land 1 = 1 then i else go (i + 1) in
  go 0

(* The reduction steps write [dst.(0 .. n-1)] from [src]; [three_color]
   ping-pongs between two buffers, and {!Steps} wraps each step as a pure
   function. *)
let cv_step_into ~n parent src dst =
  for v = 0 to n - 1 do
    let c = src.(v) and p = parent.(v) in
    dst.(v) <-
      (if p = -1 then c land 1
       else begin
         let i = lowest_differing_bit c src.(p) in
         (2 * i) + ((c lsr i) land 1)
       end)
  done

let shift_down_into ~n parent src dst =
  for v = 0 to n - 1 do
    let c = src.(v) and p = parent.(v) in
    dst.(v) <- (if p = -1 then if c = 0 then 1 else 0 else src.(p))
  done

(* Reads [old_colors.(v)] only for the [v] it writes, so [dst] may be
   [old_colors]. *)
let eliminate_into ~n parent ~old_colors ~shifted c dst =
  for v = 0 to n - 1 do
    let col = shifted.(v) in
    dst.(v) <-
      (if col <> c then col
       else begin
         (* Forbidden: parent's shifted colour; children's shifted colour,
            which is this node's pre-shift colour. *)
         let p = parent.(v) in
         let forb1 = if p = -1 then -1 else shifted.(p) in
         let forb2 = old_colors.(v) in
         let rec pick x =
           if x <> forb1 && x <> forb2 then x
           else pick (x + 1)
         in
         let chosen = pick 0 in
         assert (chosen <= 2);
         chosen
       end)
  done

module Steps = struct
  let to_forest ~n ~succ = to_forest ~n ~succ

  let cv_step ~parent colors =
    let n = Array.length colors in
    let dst = Array.make n 0 in
    cv_step_into ~n parent colors dst;
    dst

  let shift_down ~parent colors =
    let n = Array.length colors in
    let dst = Array.make n 0 in
    shift_down_into ~n parent colors dst;
    dst

  let eliminate ~parent ~old_colors ~shifted c =
    let n = Array.length shifted in
    let dst = Array.make n 0 in
    eliminate_into ~n parent ~old_colors ~shifted c dst;
    dst
end

(* Per-domain scratch of [three_color], grown to the largest [n] served:
   the forest, the cycle-check marks and the second colour buffer. *)
type scratch = { forest : int array; marks : int array; spare : int array }

let scratch_key =
  Domain.DLS.new_key (fun () -> { forest = [||]; marks = [||]; spare = [||] })

let domain_scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.forest >= n then s
  else begin
    let s =
      {
        forest = Array.make n 0;
        marks = Array.make n 0;
        spare = Array.make n 0;
      }
    in
    Domain.DLS.set scratch_key s;
    s
  end

let three_color ~n ~succ =
  let s = domain_scratch n in
  let parent = s.forest in
  to_forest_into ~n ~succ parent s.marks;
  (* The colours ping-pong between the result array and the scratch
     buffer. *)
  let result = Array.init n (fun v -> v) in
  let colors = ref result and spare = ref s.spare in
  let swap () =
    let c = !colors in
    colors := !spare;
    spare := c
  in
  let iterations = ref 0 in
  let max_color () =
    let m = ref 0 in
    for v = 0 to n - 1 do
      if !colors.(v) > !m then m := !colors.(v)
    done;
    !m
  in
  while max_color () >= 6 do
    cv_step_into ~n parent !colors !spare;
    swap ();
    incr iterations;
    if !iterations > 64 then failwith "Coloring: CV did not converge"
  done;
  List.iter
    (fun c ->
      let shifted = !spare in
      shift_down_into ~n parent !colors shifted;
      eliminate_into ~n parent ~old_colors:!colors ~shifted c !colors)
    [ 5; 4; 3 ];
  if !colors != result then Array.blit !colors 0 result 0 n;
  { colors = result; iterations = !iterations }

let is_proper ~n ~succ colors =
  let ok = ref true in
  for v = 0 to n - 1 do
    let s = succ.(v) in
    if s >= 0 && colors.(v) = colors.(s) then ok := false
  done;
  !ok
