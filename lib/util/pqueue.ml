type ('p, 'a) t = {
  cmp : 'p -> 'p -> int;
  mutable prio : 'p array;
  mutable data : 'a array;
  mutable size : int;
}

let create ?(capacity = 16) ~cmp () =
  ignore capacity;
  { cmp; prio = [||]; data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t p x =
  (* Arrays start empty because we have no dummy element of type 'p/'a; the
     first push seeds them, later growth doubles. *)
  if Array.length t.prio = 0 then begin
    t.prio <- Array.make 16 p;
    t.data <- Array.make 16 x
  end
  else begin
    let n = Array.length t.prio in
    let prio' = Array.make (2 * n) t.prio.(0) in
    let data' = Array.make (2 * n) t.data.(0) in
    Array.blit t.prio 0 prio' 0 n;
    Array.blit t.data 0 data' 0 n;
    t.prio <- prio';
    t.data <- data'
  end

let swap t i j =
  let p = t.prio.(i) and d = t.data.(i) in
  t.prio.(i) <- t.prio.(j);
  t.data.(i) <- t.data.(j);
  t.prio.(j) <- p;
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.prio.(i) t.prio.(parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.prio.(l) t.prio.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.prio.(r) t.prio.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t p x =
  if t.size >= Array.length t.prio then grow t p x;
  t.prio.(t.size) <- p;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.data.(0))

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) and x = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (p, x)
  end

let pop_exn t =
  match pop t with
  | Some v -> v
  | None -> invalid_arg "Pqueue.pop_exn: empty queue"

let clear t = t.size <- 0

(* The monomorphic twin: [sift_up] / [sift_down] are the functions above
   line for line, with [t.cmp a b < 0] read as [a < b] on ints, so both
   heaps pop equal priorities in the same order. *)
module Int = struct
  type t = {
    mutable prio : int array;
    mutable data : int array;
    mutable size : int;
  }

  let create ?(capacity = 16) () =
    let c = max 1 capacity in
    { prio = Array.make c 0; data = Array.make c 0; size = 0 }

  let length t = t.size

  let is_empty t = t.size = 0

  let grow t =
    let n = Array.length t.prio in
    let prio' = Array.make (2 * n) 0 in
    let data' = Array.make (2 * n) 0 in
    Array.blit t.prio 0 prio' 0 n;
    Array.blit t.data 0 data' 0 n;
    t.prio <- prio';
    t.data <- data'

  let swap t i j =
    let p = t.prio.(i) and d = t.data.(i) in
    t.prio.(i) <- t.prio.(j);
    t.data.(i) <- t.data.(j);
    t.prio.(j) <- p;
    t.data.(j) <- d

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.prio.(i) < t.prio.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.prio.(l) < t.prio.(!smallest) then smallest := l;
    if r < t.size && t.prio.(r) < t.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let push t p x =
    if t.size >= Array.length t.prio then grow t;
    t.prio.(t.size) <- p;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let min_prio t =
    if t.size = 0 then invalid_arg "Pqueue.Int.min_prio: empty queue";
    t.prio.(0)

  let pop t =
    if t.size = 0 then invalid_arg "Pqueue.Int.pop: empty queue";
    let x = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    x

  let clear t = t.size <- 0
end
