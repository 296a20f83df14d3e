(** Keyed pseudo-random functions built on SHA-256.

    The paper uses shared secret keys as seeds for pseudo-random
    channel-hopping patterns (Sections 6 and 7).  This module provides the
    PRF those patterns are drawn from: deterministic for both parties holding
    the key, unpredictable to the adversary.  {!bytes} and everything built
    on it ({!int64}, {!below}, {!channel_hop}) are HMAC-SHA256, on inputs of
    any length.  It also derives the mux's epoch keys; {!Cipher}'s
    keystream is ChaCha20, not this PRF.

    The protocols query the PRF with the {e same} key every round, so the
    hot entry point is {!Keyed}: prepare the key once (precomputing the HMAC
    midstates), then evaluate per round.  The one-shot functions below are
    byte-identical conveniences that prepare a throwaway handle per call. *)

module Keyed : sig
  type t
  (** A prepared PRF key.  Immutable; build once per key, reuse every
      round.  Every call replays it through {!Hmac.mac_feed}, which shares
      the key's schedule scratch, so a given key stays on one domain. *)

  val create : string -> t

  val bytes : t -> label:string -> counter:int -> string
  (** 32 pseudo-random bytes for ([label], [counter]). *)

  val int64 : t -> label:string -> counter:int -> int64

  val below : t -> label:string -> counter:int -> int -> int

  val channel_hop : t -> round:int -> channels:int -> int
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
