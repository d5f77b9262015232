open! Import

(** Deterministic, replayable batched edge-update streams.

    A stream is an ordered list of {e batches}; a batch is an ordered list
    of edge insertions and deletions that the dynamic engine ({!Repair})
    applies atomically before re-verifying its structures.  Streams are
    plain data: seeded generation ({!generate}), derivation from a PR 1
    fault plan ({!of_faults} — a link failure {e is} an edge deletion), and
    a versioned text format ({!to_string} / {!of_string}, schema
    ["ultraspan-stream/1"]) all produce values that replay bit-identically.

    Ops inside a batch apply {e sequentially}: deleting an edge inserted
    earlier in the same batch is legal, as is re-inserting an edge deleted
    earlier.  Strictness is the format's contract — inserting an edge that
    is already present or deleting an absent one is an error ({!apply}
    raises [Failure] with a one-line diagnostic), never silently ignored,
    so a stream is only replayable against the graph it was made for.

    {2 Text format}

    {v
    ultraspan-stream/1 <seed> <#batches>
    batch <#ops>
    + <u> <v> <w>     (insert, canonical u < v, w >= 1)
    - <u> <v>         (delete)
    v}

    Blank lines and [#] comments are ignored on input; output is canonical
    (no comments, one op per line) so [to_string] after [of_string] is
    byte-identical on canonical input. *)

type op =
  | Insert of { u : int; v : int; w : int }
  | Delete of { u : int; v : int }
      (** Endpoints are canonical: [u < v].  Use {!insert} / {!delete} to
          build well-formed ops from unordered endpoints; {!merge} rejects
          a raw op that is not. *)

type batch = op list

type t = { seed : int; batches : batch list }
(** [seed] is provenance only (the generator seed, a fault plan's seed, or
    0 for hand-written streams); replay never draws randomness from it. *)

val schema : string
(** ["ultraspan-stream/1"]. *)

val empty : t

val insert : int -> int -> int -> op
(** [insert u v w]: canonicalized insertion.  Raises [Failure] on a
    self-loop, a negative endpoint, or [w < 1]. *)

val delete : int -> int -> op
(** [delete u v]: canonicalized deletion.  Raises [Failure] on a self-loop
    or a negative endpoint. *)

val batch_count : t -> int

val op_count : t -> int

val insert_count : t -> int

val delete_count : t -> int

val generate :
  rng:Rng.t ->
  batches:int ->
  ops:int ->
  ?insert_frac:float ->
  ?max_w:int ->
  Graph.t ->
  t
(** [generate ~rng ~batches ~ops g]: a random stream of [batches] batches
    of [ops] ops each, valid against [g].  Each op is an insertion with
    probability [insert_frac] (default [0.5]) of a uniformly chosen absent
    pair with weight uniform in [[1, max_w]] (default: the maximum edge
    weight of [g]), otherwise a deletion of a uniformly chosen live edge;
    when the preferred kind is impossible (no live edge / no absent pair
    found) the other kind is used.  The model tracks its own edits, so the
    stream is sequentially valid by construction.  The stream's [seed]
    field is informational; determinism comes from [rng]'s state.
    Raises [Invalid_argument] on negative counts, [insert_frac] outside
    [[0, 1]], [max_w < 1], or a graph with fewer than 2 vertices. *)

val of_faults : Graph.t -> Faults.spec -> t
(** Reinterpret a fault plan as a deletion-only stream via
    {!Faults.to_update_stream}: one batch per round that kills at least one
    edge of [g].  The stream's [seed] is the plan's seed.
    Raises [Invalid_argument] on out-of-range nodes in the plan. *)

val merge : Graph.t -> batch -> Graph.t * int array
(** Apply one batch strictly (see the module comment): every op is
    checked ([0 <= u < v < n], and [w >= 1] for an insert, whatever
    constructor built it) and replayed against a small staged table, and
    the net edit set is merged into the canonical edge array
    ({!Graph.splice}).  Returns the new graph ([n] unchanged, edge ids
    renumbered) and the map from old edge ids to new ones; an edge the
    batch deleted maps to [-1], even when the batch re-inserted its pair
    (the re-inserted edge is a new one).  Raises [Failure] with a one-line
    diagnostic on the first invalid op, before anything is built. *)

val apply : Graph.t -> batch -> Graph.t
(** [fst (merge g batch)]. *)

val apply_all : Graph.t -> t -> Graph.t
(** Fold {!apply} over all batches. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] with a one-line [Update_stream: ...] diagnostic on a
    malformed stream (bad header, unknown schema, bad op line, op/batch
    counts disagreeing with the headers, trailing garbage). *)

val save : string -> t -> unit

val load : string -> t
(** [Failure] on malformed content, [Sys_error] on unreadable paths. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: #batches, #inserts, #deletes, seed. *)
