(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    The keyed hash under the hop PRF ({!Prf}) and the mux's epoch-key
    derivation; the cipher's tag is Poly1305, not this MAC.  Verified
    against the RFC 4231 test vectors in the test suite.

    Hot callers (the PRF-driven channel hop) MAC thousands of short
    messages under one key; {!key} prepares that key once — hashing the
    ipad and opad blocks into reusable SHA-256 midstates — and
    {!mac_keyed} replays the midstates per message, halving the
    compression count for short inputs.  The keyed and one-shot entry
    points produce byte-identical tags. *)

type key
(** A prepared MAC key (precomputed ipad/opad midstates).  Immutable once
    built: one [key] may be shared freely within a domain.

    {b Sharing across domains.}  A key may be used from several domains at
    once only through the scratch and batch entry points —
    {!mac_feed_into} with a scratch per domain, {!mac_batch},
    {!verify_batch} — which replay its midstates into their own contexts
    ({!Sha256.copy_into}) and never write the key.  {!mac_keyed} and
    {!mac_feed} replay through {!Sha256.copy}, whose copies share the
    key's message-schedule scratch: they, and every caller built on them
    ({!Prf.Keyed.bytes} and its relatives), must keep a given key on one
    domain. *)

val key : string -> key
(** Prepare a raw key string.  Keys longer than the 64-byte block are
    pre-hashed, exactly as in the one-shot {!mac}. *)

val mac_keyed : key -> string -> string
(** [mac_keyed k msg] is the 32-byte raw HMAC-SHA256 tag; equal to
    [mac ~key:raw msg] for [k = key raw]. *)

val mac_feed : key -> (Sha256.ctx -> unit) -> string
(** [mac_feed k feed] MACs the byte sequence that [feed] pushes into the
    inner context — the zero-concatenation path used by {!Prf} to absorb
    label and counter fields without building the message string. *)

type scratch
(** Reusable working state (two contexts + inner-digest buffer) for the
    batch entry points below.  One [scratch] serves any number of
    sequential MACs under any keys; it must not be shared across domains
    or used reentrantly.  Since the cipher's tag and the mux's acks moved
    to Poly1305, {!mac_batch} and {!verify_batch} are its only callers
    in the library; it goes with them. *)

val scratch : unit -> scratch

val mac_feed_into : key -> scratch -> (Sha256.ctx -> unit) -> Bytes.t -> pos:int -> unit
(** [mac_feed_into k s feed out ~pos] is {!mac_feed} writing the 32-byte
    tag at [pos] of [out], with all working state drawn from [s] — zero
    allocations per call.  Byte-identical to [mac_feed k feed]. *)

val mac_batch : key -> string array -> string array
(** [mac_batch k msgs] tags every message under one key, amortizing the
    midstate replay buffers across the whole batch.  Element [i] equals
    [mac_keyed k msgs.(i)]. *)

val verify_batch : key -> tags:string array -> string array -> bool array
(** [verify_batch k ~tags msgs] checks [tags.(i)] against [msgs.(i)] for
    each [i] (constant-time per element, as {!equal_ct_sub}).  Raises
    [Invalid_argument] on length mismatch. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte raw HMAC-SHA256 tag. *)

val equal_ct_sub : expect:Bytes.t -> string -> pos:int -> len:int -> bool
(** Constant-time comparison of a tag computed into a caller's buffer
    against the [len]-byte slice at [pos] of a string — a tag read in
    place from a frame on the wire.  The length check is folded into the
    byte-comparison accumulator, so a wrong-length tag and a wrong-byte
    tag are rejected on the same timing path.  Allocates nothing. *)
