(** The ChaCha20 block function (Bernstein, "ChaCha, a variant of
    Salsa20", 2008), in its original layout: a 256-bit key in words 4–11,
    a 64-bit block counter in words 12–13 and a 64-bit nonce in words
    14–15, every word little-endian.  RFC 8439's 32-bit counter and 96-bit
    nonce are the same function with the counter's high word read as the
    nonce's first: block [c] under RFC nonce [n0 ‖ n1 ‖ n2] is block
    [c + 2^32 n0] under the nonce [n1 ‖ n2] here.

    The stream cipher of {!Cipher}.  The block's state words are 32-bit
    values in unboxed [Int64] locals, so a block allocates nothing and its
    adds, xors and rotations pay no tag fix-ups; its output words are
    native ints (a 64-bit host). *)

type key
(** A 32-byte key, read into its eight words once. *)

val key : string -> key
(** Raises [Invalid_argument] unless the string is 32 bytes. *)

val block : key -> nonce:string -> off:int -> counter:int -> int array -> unit
(** [block k ~nonce ~off ~counter out] writes the 16 output words of block
    [counter] (0 <= [counter] < 2^62) under the 8-byte nonce at [off] of
    [nonce] into [out.(0..15)], each in [\[0, 2^32)].  Byte [i] of the
    block is byte [i mod 4] (little-endian) of word [i / 4]. *)

val xor_into :
  int array -> word:int -> string -> spos:int -> Bytes.t -> dpos:int -> len:int -> unit
(** [xor_into w ~word src ~spos dst ~dpos ~len]:
    [dst.(dpos + i) <- src.(spos + i) xor b.(4 * word + i)] for [i < len],
    where [b] is the block whose words {!block} wrote to [w], eight bytes
    per step.  Requires [4 * word + len <= 64]. *)
