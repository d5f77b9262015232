(** Summary statistics for the benchmark harness and experiment tables. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays of length < 2. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [\[0,1\]]: linear-interpolation quantile of
    a copy of [xs] (the input is not mutated). *)

val median : float array -> float

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] partitions [\[min, max\]] into [bins] equal-width
    buckets and returns [(lo, hi, count)] per bucket.  Constant data
    (min = max) degenerates to a single zero-width bucket [(x, x, n)]
    holding every sample; an empty array yields no buckets.  Raises
    [Invalid_argument] when [bins <= 0]. *)
