(** Xoshiro256**: the all-purpose 64-bit generator of Blackman & Vigna.

    State is 256 bits, period 2^256 - 1.  Seeded from a single 64-bit value
    via {!Splitmix64}, as the authors recommend. *)

type t

val create : int64 -> t
(** [create seed] derives the 256-bit state from [seed] with SplitMix64. *)

val copy : t -> t

val next : t -> int64
(** Next 64-bit output (boxed; equals [step] + [out_hi]/[out_lo]). *)

val step : t -> unit
(** Advance the state one draw without boxing the output; read it through
    {!out_hi}/{!out_lo} before the next [step].  [Rng]'s [bool] and [float]
    draw through it; bounded draws go through {!below}/{!fill_below}. *)

val out_hi : t -> int
(** High 32 bits of the latest {!step} output, in [0, 2^32). *)

val out_lo : t -> int
(** Low 32 bits of the latest {!step} output, in [0, 2^32). *)

val max_below : int
(** The largest bound {!below} and {!fill_below} take: 2^30 - 1. *)

val below : t -> int -> int
(** [below t bound] is uniform in [\[0, bound)], for
    [0 < bound <= max_below]: the draw [next t >>> 1] mod [bound], with
    exact rejection of the top [(2^63 - 1) mod bound] values, so it equals
    the textbook Int64 rejection sampler draw for draw.  The bounded-draw
    kernel: a power-of-two bound is a mask (no division); any other bound
    pays one division per call for its rejection constants and one per
    draw.  Allocates nothing.  Raises [Invalid_argument] on a bound out of
    range. *)

val fill_below : t -> int -> int array -> len:int -> unit
(** [fill_below t bound arr ~len] sets [arr.(0) .. arr.(len - 1)] to [len]
    successive {!below} draws, computing the bound's constants once.  Same
    output and final state as [len] calls of [below].  Raises
    [Invalid_argument] on a bound out of range or [len] outside
    [\[0, Array.length arr\]]. *)

val accepts : bound:int -> hi:int -> lo31:int -> bool
(** The kernel's rejection predicate: whether the 63-bit value
    [hi * 2^31 + lo31] ([hi] 32 bits, [lo31] 31 bits) is below
    [(2^63 - 1) - ((2^63 - 1) mod bound)].  Exposed so its boundary, which
    random draws practically never reach, can be tested directly. *)

val jump : t -> unit
(** Advance the state by 2^128 steps; used to create non-overlapping
    subsequences from a common seed. *)
