let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int n
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs q =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 0.5

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length xs = 0 then [||]
  else begin
    let lo, hi = min_max xs in
    if hi = lo then
      (* Degenerate data (all samples equal): one zero-width bucket at the
         data's own value, rather than [bins] buckets of an arbitrary
         width-1 grid unrelated to the data's scale. *)
      [| (lo, hi, Array.length xs) |]
    else begin
    let width = (hi -. lo) /. float_of_int bins in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let b = int_of_float ((x -. lo) /. width) in
        let b = if b >= bins then bins - 1 else b in
        counts.(b) <- counts.(b) + 1)
      xs;
    Array.mapi
      (fun i c ->
        let l = lo +. (float_of_int i *. width) in
        (l, l +. width, c))
      counts
    end
  end
