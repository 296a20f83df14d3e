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

val fill_int : t -> int -> int array -> len:int -> unit
(** [fill_int t bound arr ~len] sets [arr.(0) .. arr.(len - 1)] to
    successive draws uniform in [\[0, bound)].  Bit-identical to [len]
    calls of [int t bound] in index order: the same values, and [t] ends in
    the same state, so later draws agree too.  It is one
    {!Xoshiro.fill_below} call, which loads the generator state and
    computes the bound's limit once, and allocates nothing.  Requires
    [bound > 0]; raises [Invalid_argument] unless
    [0 <= len <= Array.length arr]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
