(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used as the collision-resistant hash the paper assumes for reconstruction
    hashes (H1), vector signatures (H2), key hashes, and as the compression
    core of {!Hmac} and {!Prf}.  Verified against the standard NIST test
    vectors in the test suite. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** An independent snapshot of the streaming state.  Feeding or finalizing
    either context leaves the other untouched — this is what lets {!Hmac}
    precompute the ipad/opad midstates once per key and replay them for
    every MAC.  The copy shares the original's message-schedule scratch,
    which each compression rewrites before reading, so a context and its
    copies must stay on one domain.  {!copy_into} reads its source and
    writes only [into]: a context that no one feeds any more (a prepared
    key's midstate) may be replayed from several domains at once that way,
    each into a context of its own. *)

val copy_into : ctx -> into:ctx -> unit
(** [copy_into src ~into] overwrites [into] with a snapshot of [src]
    without allocating — the batch-MAC path replays one midstate into the
    same scratch context for every frame of an epoch. *)

val update : ctx -> string -> unit
(** Absorb bytes.  May be called any number of times. *)

val update_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit

val feed_string : ctx -> string -> off:int -> len:int -> unit
(** Absorb [len] bytes of [s] starting at [off], without copying the slice
    out first.  {!update} is its whole-string case; public so the
    windowed feed is tested directly. *)

val finalize : ctx -> string
(** The 32-byte raw digest.  The padding is written in place into the
    context's block buffer, so the context must not be reused afterwards
    (except via {!copy_into}, which resets it to the copied state). *)

val finalize_into : ctx -> Bytes.t -> pos:int -> unit
(** Like {!finalize}, writing the 32 digest bytes at [pos] of a
    caller-owned buffer instead of allocating a string.  Allocates
    nothing. *)

val digest : string -> string
(** One-shot: [digest s] is the 32-byte raw digest of [s]. *)

val digest_hex : string -> string
(** One-shot digest rendered as 64 lowercase hex characters. *)

val hex_of : string -> string
(** Render raw bytes as lowercase hex. *)

val digest_size : int
(** 32. *)
