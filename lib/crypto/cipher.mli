(** Authenticated symmetric encryption (encrypt-then-MAC).

    Provides the "encrypt and sign" operations the paper assumes once shared
    secrets exist: secrecy against an eavesdropping adversary and
    authentication against spoofed frames.  Construction: ChaCha20
    ({!Chacha20}, 64-bit nonce and block counter) under the encryption
    subkey, and a 32-byte tag of two Poly1305 lanes ({!Poly1305}) over
    RFC 8439's AEAD input with the nonce as AAD.  Each lane's [r] is a
    clamped half of the MAC subkey; its pad [s] is 16 bytes of ChaCha20
    block 0 under the frame's nonce, whose other 32 bytes start the
    keystream — Poly1305-AES (Bernstein, FSE 2005) with ChaCha20 as the
    pad PRF.  Encryption and MAC subkeys are domain-separated SHA-256
    derivations of the session key.  A seal or open of an [n]-byte
    plaintext costs [ceil((n + 32) / 64)] ChaCha20 blocks plus two
    Poly1305 lanes of [ceil(n / 16) + 2] blocks each.

    {b Nonces.}  A nonce must never seal two different plaintexts under
    one key: the keystream would repeat, and two tags under one pad give
    away the lane's long-term [r].  DESIGN.md lists the rule each sealing
    site meets. *)

type sealed = { nonce : string; body : string; tag : string }
(** A sealed frame: 8-byte nonce, ciphertext, 32-byte tag.  Every open path
    rejects a frame whose nonce is not 8 bytes before any MAC or keystream
    work. *)

type key
(** A prepared session key: both domain-separated subkeys derived, the
    ChaCha20 key words read and both lanes' [r] clamped into limbs.  Build
    once per session with {!key}; the in-place calls under [key raw] are
    byte-identical to the one-shot {!seal}/{!open_} under [raw].

    {b Sharing across domains.}  Every entry point only reads the key and
    writes its own {!type-scratch} (the one-shot forms make a throwaway
    one), so one key may seal and open on several domains at once, each
    domain with a scratch of its own. *)

val key : string -> key

type scratch
(** Reusable working state (keystream blocks, the Poly1305 accumulator,
    small nonce and tag buffers, and the buffer {!open_into} leaves its
    plaintext in).  One [scratch] serves any number of sequential calls
    under any keys; per-domain, not reentrant.  Concurrent callers sharing
    one {!type-key} each bring their own. *)

val scratch : unit -> scratch

val seal_batch : key -> scratch -> nonces:int64 array -> string array -> sealed array
(** Seal every message under one key and scratch.  Under
    [k = key raw], element [i] equals [seal ~key:raw ~nonce:nonces.(i)
    msgs.(i)].  Raises [Invalid_argument] on length mismatch. *)

val open_batch : key -> scratch -> sealed array -> string option array
(** Open every frame under one key; under [k = key raw], element [i]
    equals [open_ ~key:raw frames.(i)]. *)

val seal : key:string -> nonce:int64 -> string -> sealed
(** [seal ~key ~nonce plaintext].  Nonces must not repeat under one key.
    One-shot form: prepares a throwaway {!type-key} and {!type-scratch}. *)

val open_ : key:string -> sealed -> string option
(** [open_ ~key sealed] is [Some plaintext] iff the nonce is 8 bytes and
    the tag verifies. *)

val encode : sealed -> string
(** Flat wire encoding (length-prefixed fields: nonce, body, tag). *)

val decode : string -> sealed option
(** Inverse of {!encode}; [None] on malformed input. *)

(** {1 In place}

    The per-frame path of a long-lived service: seal straight into the
    wire buffer, open straight from the frame.  Nonce, body and tag are
    read as slices of the frame and never copied out; the only bytes
    written are the caller's buffer and the scratch.  Under [key raw],
    byte-identical to {!encode} of {!seal} and to {!decode} + {!open_}
    under [raw].  The sealed-hop link and the mux seal and open only
    here.

    Sharing: like every entry point they only read the key, so domains
    may seal and open under one key at once, each with its own scratch
    and writing its own output buffers; the frame an [open_into] reads
    may be shared too. *)

val frame_size : int -> int
(** [frame_size len] is the length of {!encode}'s output for a sealed
    [len]-byte plaintext. *)

val seal_into :
  key -> scratch -> nonce:int64 -> Bytes.t -> len:int -> Bytes.t -> pos:int -> unit
(** [seal_into k s ~nonce plain ~len out ~pos] writes
    [encode (seal ~key:raw ~nonce p)] at [pos] of [out], where
    [k = key raw] and [p] is the first [len] bytes of [plain]; [out] needs
    [frame_size len] bytes from [pos].  Allocates nothing. *)

val framed : string -> pos:int -> bool
(** The suffix of the string from [pos] is well-formed: [decode] of it
    would be [Some _]. *)

val frame_nonce : string -> pos:int -> int64 option
(** The nonce of the encoding filling the string from [pos], when it is
    well-formed ({!framed}) and its nonce is 8 bytes. *)

val open_into : key -> scratch -> string -> pos:int -> int
(** [open_into k s blob ~pos] opens the encoding that fills [blob] from
    [pos] to its end: the plaintext's length, with its bytes at the start
    of [plain s], when [decode] + {!open_} of that suffix would be
    [Some _]; [-1] when it is malformed, its nonce is not 8 bytes, or the
    tag fails.  Never raises; allocates nothing once [plain s] is large
    enough. *)

val plain : scratch -> Bytes.t
(** The buffer holding the last {!open_into}'s plaintext.  Valid until the
    scratch's next call; read it after the call (the buffer may grow). *)

(** {1 Tag only}

    The tag of a frame that needs no secrecy (the mux's slotted acks): the
    tag {!seal_into} would give under [nonce] to a ciphertext equal to the
    slice, sent in the clear.  One ChaCha20 block (for the pads) and two
    lanes.  The nonce rule is the seal's: under one key, one nonce tags
    one slice, and a nonce that tags never also seals. *)

val mac_into :
  key -> scratch -> nonce:int64 -> Bytes.t -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [mac_into k s ~nonce data ~off ~len out ~pos] writes the 32-byte tag
    of the [len]-byte slice of [data] at [off] to [pos] of [out]; [out]
    may be [data] itself, with the tag outside the slice.  Allocates
    nothing. *)

val mac_ok : key -> scratch -> nonce:int64 -> string -> off:int -> len:int -> tag:int -> bool
(** [mac_ok k s ~nonce data ~off ~len ~tag]: the rest of [data] from
    [tag] is the slice's tag, compared in constant time (a rest of the
    wrong length fails on the same path).  [false], never an exception,
    when the slice does not end by [tag] or [tag] is past the end. *)
