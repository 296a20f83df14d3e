(** The repository-wide deterministic random stream.

    Every node, adversary, workload generator, and experiment draws from an
    [Rng.t].  Streams are split hierarchically from one master seed so that
    each component's randomness is independent of the others and every run is
    a pure function of the master seed.

    The underlying engine is {!Xoshiro} (xoshiro256 "star-star"), seeded and
    split via {!Splitmix64}. *)

type t

val create : int64 -> t
(** [create seed] makes the root stream of a run. *)

val split_at : t -> int -> t
(** [split_at t label] derives a child keyed by [label] without consuming
    parent state.  Calling it twice with the same label yields identical
    streams: used to give node [i] the same coins across protocol phases. *)

val bits64 : t -> int64
(** 64 uniform bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0].
    One {!Xoshiro.below} draw; allocates nothing. *)

val tally_int :
  t -> int -> counts:int array -> stride:int -> row:int -> rows:int -> store:Bytes.t ->
  cell:int -> at:int -> len:int -> unit
(** [tally_int t bound ~counts ~stride ~row ~rows ~store ~cell ~at ~len]
    takes [len] draws uniform in [\[0, bound)] and books each as it is
    drawn: draw [j] counts once in ring row [(row + j) mod rows] of
    [counts] and fills cell [at + j] of [store].  Bit-identical to [len]
    calls of [int t bound] in order: the same values, and [t] ends in the
    same state, so later draws agree too.  It is one
    {!Xoshiro.tally_below} call, with the same layout and checks, and
    allocates nothing.  Requires [bound > 0]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
