(** Authenticated symmetric encryption (encrypt-then-MAC).

    Provides the "encrypt and sign" operations the paper assumes once shared
    secrets exist: secrecy against an eavesdropping adversary and
    authentication against spoofed frames.  Construction: a CTR-style stream
    cipher keyed by HMAC-SHA256 (see {!Prf}), with an HMAC-SHA256 tag over
    nonce and ciphertext.  Encryption and MAC keys are domain-separated
    derivations of the session key. *)

type sealed = { nonce : string; body : string; tag : string }
(** A sealed frame: 8-byte nonce, ciphertext, 32-byte tag. *)

type key
(** A prepared session key: both domain-separated subkeys derived and their
    PRF/MAC midstates precomputed.  Build once per session with {!key};
    {!seal_keyed}/{!open_keyed} are byte-identical to {!seal}/{!open_}
    under the same raw key.

    {b Sharing across domains.}  One key may seal and open on several
    domains at once through {!seal_scratch}, {!open_scratch},
    {!seal_batch} and {!open_batch}, each domain with a {!type-scratch} of its
    own: those read the key and write only the scratch.  {!seal_keyed} and
    {!open_keyed} share the key's schedule scratch (see {!Hmac.key}), so
    they must keep a given key on one domain. *)

val key : string -> key

val seal_keyed : key -> nonce:int64 -> string -> sealed

val open_keyed : key -> sealed -> string option

type scratch
(** Reusable working state (PRF/MAC scratch, keystream and tag buffers) for
    the batch entry points.  One [scratch] serves any number of sequential
    calls under any keys; per-domain, not reentrant.  Concurrent callers
    sharing one {!type-key} each bring their own. *)

val scratch : unit -> scratch

val seal_scratch : key -> scratch -> nonce:int64 -> string -> sealed
(** {!seal_keyed} with all working state drawn from the scratch: only the
    output frame itself is allocated.  Byte-identical to {!seal_keyed}. *)

val open_scratch : key -> scratch -> sealed -> string option
(** {!open_keyed} with all working state drawn from the scratch.
    Byte-identical to {!open_keyed}. *)

val seal_batch : key -> scratch -> nonces:int64 array -> string array -> sealed array
(** Seal every message under one key, amortizing key schedule, HMAC
    midstate replay, and keystream buffers across the batch.  Element [i]
    equals [seal_keyed k ~nonce:nonces.(i) msgs.(i)].  Raises
    [Invalid_argument] on length mismatch. *)

val open_batch : key -> scratch -> sealed array -> string option array
(** Open every frame under one key; element [i] equals
    [open_keyed k frames.(i)]. *)

val seal : key:string -> nonce:int64 -> string -> sealed
(** [seal ~key ~nonce plaintext].  Nonces must not repeat under one key;
    callers use the round number, which the synchronous model makes unique.
    One-shot form of {!seal_keyed}: prepares a throwaway {!type-key}. *)

val open_ : key:string -> sealed -> string option
(** [open_ ~key sealed] is [Some plaintext] iff the tag verifies. *)

val encode : sealed -> string
(** Flat wire encoding (length-prefixed fields). *)

val encoded_size : sealed -> int
(** [String.length (encode sealed)], without encoding. *)

val encode_into : sealed -> Bytes.t -> pos:int -> unit
(** Write {!encode}'s bytes at [pos] in a caller-owned buffer, so framing
    layers can prepend their own headers without intermediate strings.
    The buffer needs [encoded_size sealed] bytes from [pos]. *)

val decode : string -> sealed option
(** Inverse of {!encode}; [None] on malformed input. *)

val decode_sub : string -> pos:int -> sealed option
(** {!decode} of the suffix starting at [pos], without copying it out
    first.  The encoding must end exactly at the end of [s]. *)
