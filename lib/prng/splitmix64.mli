(** SplitMix64: a fast, splittable 64-bit pseudo-random generator.

    This is the generator from Steele, Lea & Flood, "Fast Splittable
    Pseudorandom Number Generators" (OOPSLA 2014), in the common public-domain
    formulation.  It passes BigCrush when used as specified.  Here it only
    seeds the higher-quality {!Xoshiro} streams, and its finalizer {!mix}
    derives the seeds of {!Rng.split_at}'s children. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a generator whose output sequence is a pure function
    of [seed]. *)

val next : t -> int64
(** Next 64-bit output; advances the state. *)

val mix : int64 -> int64
(** The stateless finalizer used by [next]; useful as a cheap 64-bit hash for
    deriving seeds from identifiers. *)
