(** Keyed pseudo-random functions built on SHA-256.

    The paper uses shared secret keys as seeds for pseudo-random
    channel-hopping patterns (Sections 6 and 7).  This module provides the
    PRF those patterns are drawn from: deterministic for both parties holding
    the key, unpredictable to the adversary.  {!bytes} and everything built
    on it ({!int64}, {!below}, {!channel_hop}) are HMAC-SHA256, on inputs of
    any length.  The keystream ({!keystream}) is HMAC's inner hash alone —
    one compression per 32-byte block — and is a PRF only while every nonce
    under one key has one length.

    The protocols query the PRF with the {e same} key every round, so the
    hot entry point is {!Keyed}: prepare the key once (precomputing the HMAC
    midstates), then evaluate per round.  The one-shot functions below are
    byte-identical conveniences that prepare a throwaway handle per call. *)

module Keyed : sig
  type t
  (** A prepared PRF key.  Immutable; build once per key, reuse every
      round.  {!bytes}, {!int64}, {!below} and {!channel_hop} replay it
      through {!Hmac.mac_feed}, which shares the key's schedule scratch, so
      a given key stays on one domain for them; {!keystream} and
      {!keystream_into} (with a scratch per domain) may share it across
      domains. *)

  val create : string -> t

  val bytes : t -> label:string -> counter:int -> string
  (** 32 pseudo-random bytes for ([label], [counter]). *)

  val int64 : t -> label:string -> counter:int -> int64

  val below : t -> label:string -> counter:int -> int -> int

  val channel_hop : t -> round:int -> channels:int -> int

  val keystream : t -> nonce:string -> int -> string
  (** A fresh buffer filled by {!keystream_into} with a fresh scratch.
      Block [i] (32 bytes) is SHA-256(ipad || "ks|" || nonce || 0x00 ||
      i_be64), ipad the HMAC key block XOR 0x36: HMAC-SHA256's inner hash,
      without the outer one.

      {b Precondition: one nonce length per key.}  The construction is a
      keyed cascade, pseudo-random on a prefix-free set of inputs; under
      one key all inputs are then of one length, so none is a prefix of
      another.  The cipher always passes 8-byte nonces, and its open paths
      reject a frame with any other before touching the keystream.  The
      bytes are a pad and never a tag: length extension does not apply. *)

  type scratch
  (** Reusable working state for {!keystream_into} (one SHA-256 context
      and two small buffers).  One per domain; not reentrant. *)

  val scratch : unit -> scratch

  val keystream_into :
    t -> scratch -> nonce:string -> nonce_off:int -> nonce_len:int -> Bytes.t -> pos:int ->
    len:int -> unit
  (** [keystream_into t s ~nonce ~nonce_off ~nonce_len out ~pos ~len]
      writes the same bytes [keystream t ~nonce:n len] would return at
      [pos] of [out], where [n] is the [nonce_len]-byte slice of [nonce]
      at [nonce_off] — read in place, so a nonce inside a frame on the
      wire is never copied out.  The cipher's one core.  It allocates one
      small closure per call, whatever [len]; every block's working state
      comes from [s]. *)
end

val bytes : key:string -> label:string -> counter:int -> string
(** 32 pseudo-random bytes for ([label], [counter]). *)

val int64 : key:string -> label:string -> counter:int -> int64
(** First 8 bytes of {!bytes} as a big-endian non-negative Int64. *)

val below : key:string -> label:string -> counter:int -> int -> int
(** [below ~key ~label ~counter bound] is a pseudo-random value in
    [\[0, bound)].  Requires [bound > 0]. *)

val channel_hop : key:string -> round:int -> channels:int -> int
(** The channel for [round] in the hopping pattern keyed by [key]:
    [below] with a fixed domain-separation label. *)

val keystream : key:string -> nonce:string -> int -> string
(** [keystream ~key ~nonce len]: exactly [len] bytes of CTR-mode output
    (generated directly into the result, no over-allocation), used by
    {!Cipher} as a stream cipher.  {!Keyed.keystream} under a throwaway
    handle, with its precondition: one nonce length per key. *)
