(** One-round Diffie-Hellman key exchange (Section 6, Part 1).

    The paper initialises f-AME with the messages of a one-round key-exchange
    protocol; this module provides exactly that primitive: each party sends a
    single group element, and any pair whose elements were both delivered can
    derive the same shared key.

    The group is the prime-order-q subgroup of Z_p^* for a safe prime
    p = 2q + 1 below 2^61 (see {!Modarith.find_safe_prime}).  The simulated
    adversary never learns exchanged secrets, so the small modulus does not
    weaken any property the reproduction measures; see DESIGN.md. *)

type params = { p : int64; q : int64; g : int64 }
(** Group description: safe prime [p], subgroup order [q = (p-1)/2],
    generator [g] of the order-[q] subgroup. *)

type keypair = { secret : int64; public : int64 }

val default_params : params
(** The 61-bit safe-prime group [make_params ~bits:61 ~seed:0x5EC0DE2008L],
    shared by all nodes (group parameters are public in the paper's
    model).  A plain constant: safe to read from any number of domains at
    once, with no start-up cost.  Public so the tests can check it against
    {!make_params}. *)

val make_params : bits:int -> seed:int64 -> params
(** Deterministic group generation: the safe prime
    {!Modarith.find_safe_prime} finds for [bits] and [seed], and a
    generator of its order-q subgroup. *)

val generate : ?params:params -> Prng.Rng.t -> keypair
(** Fresh key pair; the secret exponent is uniform in [\[1, q)]. *)

val shared_secret : ?params:params -> secret:int64 -> int64 -> int64
(** [shared_secret ~secret peer_public] = peer_public^secret mod p. *)

val derive_key : ?info:string -> int64 -> string
(** Hash the raw shared group element into a 32-byte symmetric key;
    [info] domain-separates independent keys derived from one secret. *)

val valid_public : ?params:params -> int64 -> bool
(** Subgroup membership check: rejects 0, 1, and elements outside the
    order-q subgroup (protection against small-subgroup confinement). *)

val encode_public : int64 -> string
(** 8-byte big-endian wire encoding of a group element. *)

val decode_public : string -> int64 option
(** Inverse of {!encode_public}; [None] on malformed input. *)
