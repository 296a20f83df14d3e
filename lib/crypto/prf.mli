(** Keyed pseudo-random functions built on SHA-256.

    The paper uses shared secret keys as seeds for pseudo-random
    channel-hopping patterns (Sections 6 and 7).  This module provides the
    PRF those patterns are drawn from: deterministic for both parties holding
    the key, unpredictable to the adversary.  It is HMAC-SHA256 on
    [label || 0x00 || counter_be8], on labels of any length.  It also
    derives the mux's epoch keys; {!Cipher}'s keystream is ChaCha20, not
    this PRF.

    The protocols query the PRF with the {e same} key every round, so its
    one entry point is {!Keyed}: prepare the key once (precomputing the
    HMAC midstates), then evaluate per round. *)

module Keyed : sig
  type t
  (** A prepared PRF key.  Immutable; build once per key, reuse every
      round.  Every call replays it through {!Hmac.mac_feed}, which shares
      the key's schedule scratch, so a given key stays on one domain. *)

  val create : string -> t

  val bytes : t -> label:string -> counter:int -> string
  (** 32 pseudo-random bytes for ([label], [counter]). *)

  val below : t -> label:string -> counter:int -> int -> int
  (** [below t ~label ~counter bound] is a pseudo-random value in
      [\[0, bound)]: the first 8 bytes of {!bytes} as a big-endian
      non-negative Int64, mod [bound].  Requires [bound > 0].  A channel
      hop is [below] under the hop's label with the round as counter. *)
end
