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

val split : t -> t
(** A child stream statistically independent of the parent's future output.
    Splitting draws once from the parent, so parent determinism is kept. *)

val split_at : t -> int -> t
(** [split_at t label] derives a child keyed by [label] without consuming
    parent state.  Calling it twice with the same label yields identical
    streams: used to give node [i] the same coins across protocol phases. *)

val copy : t -> t

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

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t k xs] draws [k] distinct elements (in a
    uniformly random order).  Requires [k <= List.length xs]. *)
