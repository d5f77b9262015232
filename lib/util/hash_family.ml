let prime = 2147483647 (* 2^31 - 1, Mersenne prime *)

type t = { coeffs : int array }

(* [s mod p] for [0 <= s < 2p], branch-free (the two outcomes are equally
   likely, so a branch would mispredict half the time): the sign of
   [s - p] selects whether [p] is added back. *)
let fold s =
  let d = s - prime in
  d + ((d asr 62) land prime)

(* Mersenne reduction: 2^31 = 1 (mod p), so y = hi * 2^31 + lo reduces to
   hi + lo.  For y <= (p-1)^2 that sum is below 2p, and [fold] finishes,
   with no division. *)
let reduce y = fold ((y land prime) + (y lsr 31))

(* (p-1)^2 < 2^62 - 1 = max_int on 64-bit OCaml, so products of two reduced
   residues never overflow. *)
let mul_mod a b = reduce (a * b)

let add_mod a b = fold (a + b)

let create ~degree rng =
  if degree < 0 then invalid_arg "Hash_family.create: negative degree";
  let coeffs = Array.init (degree + 1) (fun _ -> Rng.int rng prime) in
  { coeffs }

let of_coeffs cs =
  if Array.length cs = 0 then invalid_arg "Hash_family.of_coeffs: empty";
  { coeffs = Array.map (fun c -> ((c mod prime) + prime) mod prime) cs }

let coeffs t = Array.copy t.coeffs

let degree t = Array.length t.coeffs - 1

let eval t i =
  let x = ((i mod prime) + prime) mod prime in
  let acc = ref 0 in
  for j = Array.length t.coeffs - 1 downto 0 do
    acc := add_mod (mul_mod !acc x) t.coeffs.(j)
  done;
  !acc

let eval_mod t i m =
  if m <= 0 then invalid_arg "Hash_family.eval_mod: modulus must be positive";
  eval t i mod m

let indicator t ~threshold i = eval t i < threshold

let threshold_of_prob p =
  if p < 0.0 || p > 1.0 then invalid_arg "Hash_family.threshold_of_prob";
  int_of_float (p *. float_of_int prime)
