(** Xoshiro256**: the all-purpose 64-bit generator of Blackman & Vigna.

    State is 256 bits, period 2^256 - 1.  Seeded from a single 64-bit value
    via {!Splitmix64}, as the authors recommend. *)

type t

val create : int64 -> t
(** [create seed] derives the 256-bit state from [seed] with SplitMix64. *)

val next : t -> int64
(** Next 64-bit output. *)

val bool : t -> bool
(** The low bit of the next output.  Allocates nothing. *)

val below : t -> int -> int
(** [below t bound] is uniform in [\[0, bound)], for any [bound > 0]: the
    63-bit value [v = next t >>> 1] mod [bound], with exact rejection of
    the top [(2^63 - 1) mod bound] values of [v], so it equals the
    textbook Int64 rejection sampler draw for draw.  A power-of-two bound
    is a mask (no division); any other bound pays one division per call
    for its rejection limit and one per draw.  Allocates nothing.  Raises
    [Invalid_argument] unless [bound > 0]. *)

val fill_below : t -> int -> int array -> len:int -> unit
(** [fill_below t bound arr ~len] sets [arr.(0) .. arr.(len - 1)] to [len]
    successive {!below} draws in one pass of the step loop: the state is
    loaded and stored once, and the bound's limit computed once.  Same
    output and final state as [len] calls of [below].  Raises
    [Invalid_argument] unless [bound > 0] and
    [0 <= len <= Array.length arr]. *)

val accepts : bound:int -> int64 -> bool
(** The rejection predicate: whether the 63-bit value [v] (in
    [\[0, 2^63)]) is below [limit = (2^63 - 1) - ((2^63 - 1) mod bound)],
    i.e. kept by {!below}.  Exposed so its boundary, which random draws
    practically never reach, can be tested directly. *)
