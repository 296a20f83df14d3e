(** Modular arithmetic on 61-bit moduli, and primality testing.

    All values are non-negative [Int64]s strictly below the modulus, which
    must itself be below 2^61 so that sums of two residues never overflow a
    signed 64-bit integer.  This is the number-theoretic substrate for the
    Diffie-Hellman key exchange of Section 6. *)

val mul_mod : int64 -> int64 -> int64 -> int64
(** [mul_mod a b p] = (a * b) mod p, computed by binary shift-and-add so no
    intermediate exceeds 2^62. *)

val pow_mod : int64 -> int64 -> int64 -> int64
(** [pow_mod b e p] = b^e mod p, square-and-multiply.  Requires [e >= 0]. *)

val inv_mod : int64 -> int64 -> int64
(** Modular inverse by extended Euclid.  Raises [Invalid_argument] if the
    inverse does not exist. *)

val is_probable_prime : int64 -> bool
(** Miller-Rabin with the first twelve primes as witnesses, which is known to
    be a deterministic test for all integers below 3.3 * 10^24; the answer is
    therefore exact for every representable input. *)

val find_safe_prime : bits:int -> seed:int64 -> int64
(** [find_safe_prime ~bits ~seed] deterministically searches from a
    seed-derived starting point for a safe prime p = 2q + 1 with exactly
    [bits] bits (q prime as well).  Requires [8 <= bits <= 61]. *)
