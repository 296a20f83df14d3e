(** Poly1305 (Bernstein, FSE 2005), the polynomial evaluation at a
    clamped 128-bit [r] modulo 2^130 - 5, run as the two lanes {!Cipher}'s
    tag needs, each with a long-term [r] and a per-nonce pad.  One fused
    kernel reads each 16-byte block once and multiplies its five 26-bit
    limbs into both lanes in unboxed [Int64] arithmetic, so a block
    allocates nothing and no multiply untags an operand.  Verified against
    an independent single-lane reference (itself checked against RFC 8439
    §2.5.2 and python3 [cryptography]) in the test suite. *)

type r
(** A clamped [r] with its limbs and 5·limbs precomputed. *)

val r : string -> off:int -> r
(** The 16 bytes at [off], little-endian, clamped as RFC 8439 §2.5.1. *)

type state
(** The two lanes' accumulators [h]: five limbs each.  Per-domain working
    state. *)

val state : unit -> state

val reset : state -> unit
(** [h <- 0] in both lanes. *)

val absorb : r -> r -> state -> string -> off:int -> blocks:int -> unit
(** [absorb ra rb h src ~off ~blocks] absorbs the [blocks] full 16-byte
    blocks from [off] into both lanes: [h <- (h + m + 2^128) r] per block
    [m], under [ra] in lane 0 and [rb] in lane 1. *)

val finish : state -> lane:int -> pad:int array -> word:int -> Bytes.t -> pos:int -> unit
(** Write lane [lane]'s 16-byte tag [(h mod p + s) mod 2^128] at [pos],
    where [s] is the four 32-bit little-endian words
    [pad.(word .. word + 3)]. *)
