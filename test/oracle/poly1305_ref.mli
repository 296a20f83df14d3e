(** Single-lane Poly1305 on tagged native ints: the reference the shipped
    two-lane kernel ({!Crypto.Poly1305}) is checked against.  It shares no
    code with it: its own clamping, limb loads, block multiply and final
    reduction. *)

val mac : key:string -> string -> string
(** One-shot Poly1305 of any message under a 32-byte one-time key
    [r ‖ s], with RFC 8439's padding of a final partial block.  Raises
    [Invalid_argument] unless the key is 32 bytes. *)
