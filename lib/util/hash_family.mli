(** k-wise independent hash families over a prime field.

    This is the library's stand-in for the Gopalan–Yehudayoff short-seed
    distribution of the paper's Appendix B.  A degree-(k-1) random polynomial
    over GF(p) gives a k-wise independent family [\[N\] -> \[0,p)]; reducing
    mod M gives an (almost-uniform) family into [\[M\]].  The seed is the
    coefficient vector, so the "seed length" is k·log p bits — short enough
    to fix coefficient-by-coefficient in a conditional-expectation argument,
    and to *enumerate* for small test universes.

    Hitting-events (Definition 3.2 of the paper: "at least one X_j in S is
    set") over indicators [X_i = \[h(i) < threshold\]] are approximated by
    this family; the test-suite measures the approximation error empirically
    against full independence. *)

type t
(** One member of the family (a fixed polynomial = a fixed seed). *)

val prime : int
(** The field modulus (a 31-bit prime, [2^31 - 1]). *)

val reduce : int -> int
(** [reduce y] is [y mod prime] for [0 <= y <= (prime - 1)^2] (the range
    of a product of two residues), computed by Mersenne folding instead
    of a division.  Outside that range the result is unspecified. *)

val create : degree:int -> Rng.t -> t
(** [create ~degree rng] samples a uniformly random polynomial of the given
    degree (so the family is (degree+1)-wise independent).  [degree >= 0]. *)

val of_coeffs : int array -> t
(** Deterministic construction from explicit coefficients (each reduced
    mod {!prime}).  The array is copied. *)

val coeffs : t -> int array
(** The seed, exposed for conditional-expectation style fixing. *)

val degree : t -> int

val eval : t -> int -> int
(** [eval h i] in [\[0, prime)].  Horner evaluation, O(degree). *)

val eval_mod : t -> int -> int -> int
(** [eval_mod h i m] is [eval h i mod m]. *)

val indicator : t -> threshold:int -> int -> bool
(** [indicator h ~threshold i] is [true] iff [eval h i < threshold]; the
    marginal probability is [threshold / prime] (exactly, for each single
    index, by uniformity of the polynomial family). *)

val threshold_of_prob : float -> int
(** Threshold such that [indicator] fires with probability ~p. *)
