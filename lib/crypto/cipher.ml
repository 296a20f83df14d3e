type sealed = { nonce : string; body : string; tag : string }

(* Every nonce is [nonce_len] bytes: ChaCha20's nonce words, and the AAD
   of the tag. *)
let nonce_len = 8
let tag_len = 32

let enc_key key = Sha256.digest ("cipher-enc|" ^ key)
let mac_key key = Sha256.digest ("cipher-mac|" ^ key)

(* A prepared session key: the ChaCha20 key words, and the two lanes'
   long-term Poly1305 [r]s, the halves of the MAC subkey, clamped once.
   Long-lived callers (the sealed-hop link and the mux) seal and open
   under one key for thousands of rounds. *)
type key = { enc : Chacha20.key; r1 : Poly1305.r; r2 : Poly1305.r }

let key raw =
  let m = mac_key raw in
  { enc = Chacha20.key (enc_key raw); r1 = Poly1305.r m ~off:0; r2 = Poly1305.r m ~off:16 }

(* Reusable working state: block 0 (the lanes' pads, then the first 32
   keystream bytes) and the later keystream block, both Poly1305 lanes'
   accumulators, a 16-byte buffer for the padded blocks of the MAC input,
   an 8-byte one for an [int64] nonce, the tag buffer, and the growable
   buffer {!open_into} leaves its plaintext in: sealing or opening a whole
   epoch's worth of frames under one key allocates only what the caller
   keeps. *)
type scratch = {
  b0 : int array;
  ks : int array;
  h : Poly1305.state;
  last : Bytes.t;
  nonce_buf : Bytes.t;
  tag_buf : Bytes.t;
  mutable plain : Bytes.t;
}

let scratch () =
  { b0 = Array.make 16 0; ks = Array.make 16 0; h = Poly1305.state ();
    last = Bytes.create 16; nonce_buf = Bytes.create nonce_len; tag_buf = Bytes.create tag_len;
    plain = Bytes.create 64 }

let grow b len =
  if Bytes.length b < len then Bytes.create (max len (2 * Bytes.length b)) else b

(* The one cipher core.  Every entry point reads nonce and body as slices
   ([s], offset, length) of strings — a frame on the wire, or a caller's
   buffer viewed read-only for the length of the call — and writes into
   bytes it owns or was handed.  Each first draws block 0 under the
   nonce into [s.b0] ([block0]); the tag and the keystream then read it. *)

let block0 k s nonce ~noff = Chacha20.block k.enc ~nonce ~off:noff ~counter:0 s.b0

(* [dst.(dpos + i) <- src.(spos + i) xor keystream.(i)] for [i < len]:
   the keystream is block 0's last 32 bytes, then blocks 1, 2, ... *)
let crypt k s nonce ~noff src ~spos dst ~dpos ~len =
  let first = Int.min len 32 in
  Chacha20.xor_into s.b0 ~word:8 src ~spos dst ~dpos ~len:first;
  let off = ref first and counter = ref 1 in
  while !off < len do
    Chacha20.block k.enc ~nonce ~off:noff ~counter:!counter s.ks;
    let take = Int.min 64 (len - !off) in
    Chacha20.xor_into s.ks ~word:0 src ~spos:(spos + !off) dst ~dpos:(dpos + !off) ~len:take;
    off := !off + take;
    incr counter
  done

(* The 32-byte tag over nonce and body, written at [pos] of [out]: two
   Poly1305 lanes of RFC 8439's AEAD input with the nonce as AAD — nonce,
   8 zero bytes, body, zeros to a 16-byte boundary, le64 8, le64 [blen] —
   absorbed in one pass, lane 1 under [r1] with block 0's bytes 0–15 as
   pad, lane 2 under [r2] with bytes 16–31.  [block0] must have run under
   this nonce. *)
let tag_into k s nonce ~noff body ~boff ~blen out ~pos =
  Counters.poly1305 (2 * (2 + ((blen + 15) / 16)));
  let h = s.h and last = s.last in
  let last_s = Bytes.unsafe_to_string last in
  Poly1305.reset h;
  Bytes.blit_string nonce noff last 0 nonce_len;
  Bytes.fill last nonce_len (16 - nonce_len) '\000';
  Poly1305.absorb k.r1 k.r2 h last_s ~off:0 ~blocks:1;
  let whole = blen / 16 in
  Poly1305.absorb k.r1 k.r2 h body ~off:boff ~blocks:whole;
  let rest = blen - (16 * whole) in
  if rest > 0 then begin
    Bytes.blit_string body (boff + (16 * whole)) last 0 rest;
    Bytes.fill last rest (16 - rest) '\000';
    Poly1305.absorb k.r1 k.r2 h last_s ~off:0 ~blocks:1
  end;
  Bytes.set_int64_le last 0 (Int64.of_int nonce_len);
  Bytes.set_int64_le last 8 (Int64.of_int blen);
  Poly1305.absorb k.r1 k.r2 h last_s ~off:0 ~blocks:1;
  Poly1305.finish h ~lane:0 ~pad:s.b0 ~word:0 out ~pos;
  Poly1305.finish h ~lane:1 ~pad:s.b0 ~word:4 out ~pos:(pos + 16)

(* Check the tag over nonce || body against the [tlen]-byte slice at
   [toff] of [tag]; [block0] must have run under this nonce. *)
let tag_matches k s nonce ~noff body ~boff ~blen tag ~toff ~tlen =
  tag_into k s nonce ~noff body ~boff ~blen s.tag_buf ~pos:0;
  Hmac.equal_ct_sub ~expect:s.tag_buf tag ~pos:toff ~len:tlen

(* Reject a nonce of any other length before any work, then check the tag,
   then decrypt the body into [dst] at [dpos]. *)
let verify_crypt k s nonce ~noff ~nlen body ~boff ~blen tag ~toff ~tlen dst ~dpos =
  nlen = nonce_len
  && begin
    Counters.open_ ();
    block0 k s nonce ~noff;
    let ok = tag_matches k s nonce ~noff body ~boff ~blen tag ~toff ~tlen in
    if ok then crypt k s nonce ~noff body ~spos:boff dst ~dpos ~len:blen;
    ok
  end

(* The record-valued forms behind the one-shot and batch calls. *)
let seal_frame k s ~nonce plaintext =
  Counters.seal ();
  let n = Bytes.create nonce_len in
  Bytes.set_int64_be n 0 nonce;
  let nonce = Bytes.unsafe_to_string n in
  let len = String.length plaintext in
  let body = Bytes.create len and tag = Bytes.create tag_len in
  block0 k s nonce ~noff:0;
  crypt k s nonce ~noff:0 plaintext ~spos:0 body ~dpos:0 ~len;
  let body = Bytes.unsafe_to_string body in
  tag_into k s nonce ~noff:0 body ~boff:0 ~blen:len tag ~pos:0;
  { nonce; body; tag = Bytes.unsafe_to_string tag }

let open_frame k s { nonce; body; tag } =
  let out = Bytes.create (String.length body) in
  if
    verify_crypt k s nonce ~noff:0 ~nlen:(String.length nonce) body ~boff:0
      ~blen:(String.length body) tag ~toff:0 ~tlen:(String.length tag) out ~dpos:0
  then Some (Bytes.unsafe_to_string out)
  else None

let seal_batch k s ~nonces msgs =
  let n = Array.length msgs in
  if Array.length nonces <> n then invalid_arg "Cipher.seal_batch: length mismatch";
  Array.init n (fun i -> seal_frame k s ~nonce:nonces.(i) msgs.(i))

let open_batch k s frames = Array.map (open_frame k s) frames

(* One-shot forms: a throwaway key and scratch per call. *)
let seal ~key:raw ~nonce plaintext = seal_frame (key raw) (scratch ()) ~nonce plaintext

let open_ ~key:raw sealed = open_frame (key raw) (scratch ()) sealed

(* Wire encoding: three fields, each a big-endian u32 length and its
   bytes — nonce, body, tag. *)

let frame_size len = 12 + nonce_len + len + tag_len

let set_len out pos len = Bytes.set_int32_be out pos (Int32.of_int len)

(* The end of the field starting at [p] of [s], or -1 when its length
   prefix or bytes run past the end of [s] (or [p] is already -1). *)
let field_end s p =
  if p < 0 || p + 4 > String.length s then -1
  else
    let e = p + 4 + (Int32.to_int (String.get_int32_be s p) land 0xFFFF_FFFF) in
    if e > String.length s then -1 else e

(* The ends of the nonce and body fields of the encoding filling [s] from
   [pos]; [t = -1] when it is malformed. *)
let fields s ~pos =
  let b = field_end s pos in
  let t = field_end s b in
  if field_end s t = String.length s then t else -1

let framed s ~pos = fields s ~pos >= 0

let frame_nonce s ~pos =
  if fields s ~pos >= 0 && field_end s pos = pos + 4 + nonce_len then
    Some (String.get_int64_be s (pos + 4))
  else None

let seal_into k s ~nonce plain ~len out ~pos =
  Counters.seal ();
  let body = pos + 16 in
  set_len out pos nonce_len;
  Bytes.set_int64_be out (pos + 4) nonce;
  set_len out (pos + 12) len;
  (* Read-only views for the length of this call: the nonce is written
     before and never after, the body before the tag reads it. *)
  let wire = Bytes.unsafe_to_string out in
  block0 k s wire ~noff:(pos + 4);
  crypt k s wire ~noff:(pos + 4) (Bytes.unsafe_to_string plain) ~spos:0 out ~dpos:body ~len;
  set_len out (body + len) tag_len;
  tag_into k s wire ~noff:(pos + 4) wire ~boff:body ~blen:len out ~pos:(body + len + 4)

let open_into k s blob ~pos =
  let t = fields blob ~pos in
  if t < 0 then -1
  else begin
    let b = field_end blob pos in
    let blen = t - b - 4 in
    s.plain <- grow s.plain blen;
    if
      verify_crypt k s blob ~noff:(pos + 4) ~nlen:(b - pos - 4) blob ~boff:(b + 4) ~blen blob
        ~toff:(t + 4) ~tlen:(String.length blob - t - 4) s.plain ~dpos:0
    then blen
    else -1
  end

let plain s = s.plain

(* Tag only: the tag a seal under [nonce] would give a ciphertext equal to
   the slice, its one ChaCha20 block spent on the pads. *)
let tag_nonce k s nonce =
  Counters.tag ();
  Bytes.set_int64_be s.nonce_buf 0 nonce;
  let n = Bytes.unsafe_to_string s.nonce_buf in
  block0 k s n ~noff:0;
  n

let mac_into k s ~nonce data ~off ~len out ~pos =
  let n = tag_nonce k s nonce in
  (* A read-only view for the length of this call: the tag lands outside
     the slice. *)
  tag_into k s n ~noff:0 (Bytes.unsafe_to_string data) ~boff:off ~blen:len out ~pos

let mac_ok k s ~nonce data ~off ~len ~tag =
  off >= 0 && len >= 0 && off + len <= tag && tag <= String.length data
  && begin
    let n = tag_nonce k s nonce in
    tag_matches k s n ~noff:0 data ~boff:off ~blen:len data ~toff:tag
      ~tlen:(String.length data - tag)
  end

let encode { nonce; body; tag } =
  let out = Bytes.create (12 + String.length nonce + String.length body + String.length tag) in
  let field p f =
    set_len out p (String.length f);
    Bytes.blit_string f 0 out (p + 4) (String.length f);
    p + 4 + String.length f
  in
  ignore (field (field (field 0 nonce) body) tag : int);
  Bytes.unsafe_to_string out

let decode s =
  let t = fields s ~pos:0 in
  if t < 0 then None
  else
    let b = field_end s 0 in
    Some
      { nonce = String.sub s 4 (b - 4);
        body = String.sub s (b + 4) (t - b - 4);
        tag = String.sub s (t + 4) (String.length s - t - 4) }
