(** Keyed pseudo-random function built on HMAC-SHA256.

    The paper uses shared secret keys as seeds for pseudo-random
    channel-hopping patterns (Sections 6 and 7).  This module provides the
    PRF those patterns are drawn from: deterministic for both parties holding
    the key, unpredictable to the adversary.

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
  (** A fresh buffer filled by {!keystream_into} with a fresh scratch. *)

  type scratch
  (** Reusable working state for {!keystream_into}.  One per domain;
      not reentrant. *)

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
(** [keystream ~key ~nonce len]: exactly [len] bytes of CTR-mode PRF output
    (generated directly into the result, no over-allocation), used by
    {!Cipher} as a stream cipher. *)
