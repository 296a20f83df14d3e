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

val tally_below :
  t -> int -> counts:int array -> stride:int -> row:int -> rows:int -> store:Bytes.t ->
  cell:int -> at:int -> len:int -> unit
(** [tally_below t bound ~counts ~stride ~row ~rows ~store ~cell ~at ~len]
    takes [len] successive {!below} draws [h_0 .. h_(len-1)] and books each
    as it is drawn, in one pass of the step loop: draw [h_j] adds 1 to
    [counts.(r_j * stride + h_j)], where [r_j = (row + j) mod rows] is its
    row of a ring of [rows] rows of [stride] counts, and is written
    little-endian to cell [at + j] of [store], whose cells are [cell]
    bytes.  Same draws and final state as [len] calls of [below]; the
    state is loaded and stored once, the bound's limit computed once, and
    nothing is allocated.  Raises [Invalid_argument] unless [bound > 0],
    [cell] is 1, 2 or 4 with [bound <= 2^(8 cell)], [bound <= stride],
    [0 <= row < rows], [rows * stride <= Array.length counts], [len >= 0]
    and cells [at .. at + len - 1] lie in [store]. *)

val accepts : bound:int -> int64 -> bool
(** The rejection predicate: whether the 63-bit value [v] (in
    [\[0, 2^63)]) is below [limit = (2^63 - 1) - ((2^63 - 1) mod bound)],
    i.e. kept by {!below}.  Exposed so its boundary, which random draws
    practically never reach, can be tested directly. *)
