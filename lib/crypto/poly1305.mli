(** Poly1305 (Bernstein, FSE 2005), the polynomial evaluation at a
    clamped 128-bit [r] modulo 2^130 - 5, on five 26-bit limbs in native
    ints: every product fits 63 bits.  {!Cipher} runs two lanes of it, each
    with a long-term [r] and a per-nonce pad.  Verified against RFC 8439
    §2.5.2 and python3 [cryptography] in the test suite. *)

type r
(** A clamped [r] with its limbs and 5·limbs precomputed. *)

val r : string -> off:int -> r
(** The 16 bytes at [off], little-endian, clamped as RFC 8439 §2.5.1. *)

type state
(** The accumulator [h]: five limbs.  Per-domain working state. *)

val state : unit -> state

val reset : state -> unit
(** [h <- 0]. *)

val block : r -> state -> string -> off:int -> unit
(** Absorb the full 16-byte block at [off]: [h <- (h + m + 2^128) r]. *)

val finish : state -> pad:int array -> word:int -> Bytes.t -> pos:int -> unit
(** Write the 16-byte tag [(h mod p + s) mod 2^128] at [pos], where [s]
    is the four 32-bit little-endian words [pad.(word .. word + 3)]. *)

val mac : key:string -> string -> string
(** One-shot Poly1305 of any message under a 32-byte one-time key
    [r ‖ s], with RFC 8439's padding of a final partial block: the
    reference the known answers check {!block} and {!finish} against. *)
