(** Deterministic crypto work counters, on a {!Cache.Tally}: every domain
    counts into a block of its own, and the totals are sums over the
    blocks, so the same run gives the same totals at every [--jobs].

    The counters are kept out of [Radio.Transcript.Stats] and out of
    every rendered digest; they measure the work, never steer it. *)

type t = {
  sha256_compressions : int;  (** SHA-256 block compressions *)
  chacha20_blocks : int;  (** ChaCha20 block-function calls *)
  poly1305_blocks : int;  (** 16-byte Poly1305 blocks, summed over lanes *)
  seals : int;  (** {!Cipher} seals *)
  opens : int;  (** {!Cipher} opens that reached the tag check *)
  tags : int;  (** {!Cipher} tag-only computations and checks *)
}

val snapshot : unit -> t
(** The totals so far over every domain ({!Cache.Tally.totals}). *)

val diff : t -> t -> t
(** [diff later earlier], field by field. *)

val render : t -> string
(** One line, no newline: [crypto: sha256=... chacha20=... poly1305=...
    seal=... open=... tag=...]. *)

(** {1 Counting} — called by the crypto modules themselves. *)

val sha256_compression : unit -> unit
val chacha20_block : unit -> unit
val poly1305 : int -> unit
val seal : unit -> unit
val open_ : unit -> unit
val tag : unit -> unit
