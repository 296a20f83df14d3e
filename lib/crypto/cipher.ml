type sealed = { nonce : string; body : string; tag : string }

(* Every nonce is [nonce_len] bytes: the keystream is a PRF only on
   inputs of one length under one key (see {!Prf.Keyed.keystream}). *)
let nonce_len = 8

let enc_key key = Sha256.digest ("cipher-enc|" ^ key)
let mac_key key = Sha256.digest ("cipher-mac|" ^ key)

(* A prepared session key: both domain-separated subkeys derived once, the
   stream-cipher PRF and the MAC midstates precomputed.  Long-lived callers
   (the sealed-hop link and the mux) seal and open under one key for
   thousands of rounds. *)
type key = { enc : Prf.Keyed.t; mac : Hmac.key }

let key raw = { enc = Prf.Keyed.create (enc_key raw); mac = Hmac.key (mac_key raw) }

(* Reusable working state: PRF and MAC scratch, a growable keystream
   buffer, a tag buffer, and the growable buffer {!open_into} leaves its
   plaintext in, so sealing or opening a whole epoch's worth of frames
   under one key allocates only what the caller keeps. *)
type scratch = {
  prf : Prf.Keyed.scratch;
  hmac_s : Hmac.scratch;
  mutable ks : Bytes.t; (* keystream, grown geometrically *)
  tag_buf : Bytes.t; (* 32 bytes *)
  mutable plain : Bytes.t; (* [open_into]'s plaintext, grown geometrically *)
}

let scratch () =
  { prf = Prf.Keyed.scratch (); hmac_s = Hmac.scratch (); ks = Bytes.create 256;
    tag_buf = Bytes.create Sha256.digest_size; plain = Bytes.create 64 }

let grow b len =
  if Bytes.length b < len then Bytes.create (max len (2 * Bytes.length b)) else b

(* The one keystream+MAC core.  Every entry point reads nonce and body as
   slices ([s], offset, length) of strings — a frame on the wire, or a
   caller's buffer viewed read-only for the length of the call — and
   writes into bytes it owns or was handed. *)

(* [dst.(dpos + i) <- src.(spos + i) xor keystream(nonce).(i)] for [i < len]. *)
let crypt k s nonce ~noff ~nlen src ~spos dst ~dpos ~len =
  s.ks <- grow s.ks len;
  Prf.Keyed.keystream_into k.enc s.prf ~nonce ~nonce_off:noff ~nonce_len:nlen s.ks ~pos:0 ~len;
  let ks = s.ks in
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dpos + i)
      (Char.unsafe_chr
         (Char.code (String.unsafe_get src (spos + i)) lxor Char.code (Bytes.unsafe_get ks i)))
  done

(* The tag over nonce || body, written at [pos] of [out]. *)
let tag_into k s nonce ~noff ~nlen body ~boff ~blen out ~pos =
  Hmac.mac_feed_into k.mac s.hmac_s
    (fun ctx ->
      Sha256.feed_string ctx nonce ~off:noff ~len:nlen;
      Sha256.feed_string ctx body ~off:boff ~len:blen)
    out ~pos

(* Reject a nonce of any other length before any work, then check the tag
   over nonce || body against the [tlen]-byte slice at [toff] of [tag],
   then decrypt the body into [dst] at [dpos]. *)
let verify_crypt k s nonce ~noff ~nlen body ~boff ~blen tag ~toff ~tlen dst ~dpos =
  nlen = nonce_len
  && begin
    tag_into k s nonce ~noff ~nlen body ~boff ~blen s.tag_buf ~pos:0;
    let ok = Hmac.equal_ct_sub ~expect:s.tag_buf tag ~pos:toff ~len:tlen in
    if ok then crypt k s nonce ~noff ~nlen body ~spos:boff dst ~dpos ~len:blen;
    ok
  end

(* The record-valued forms behind the one-shot and batch calls. *)
let seal_frame k s ~nonce plaintext =
  let n = Bytes.create nonce_len in
  Bytes.set_int64_be n 0 nonce;
  let nonce = Bytes.unsafe_to_string n in
  let len = String.length plaintext in
  let body = Bytes.create len and tag = Bytes.create Sha256.digest_size in
  crypt k s nonce ~noff:0 ~nlen:nonce_len plaintext ~spos:0 body ~dpos:0 ~len;
  let body = Bytes.unsafe_to_string body in
  tag_into k s nonce ~noff:0 ~nlen:nonce_len body ~boff:0 ~blen:len tag ~pos:0;
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

let frame_size len = 12 + nonce_len + len + Sha256.digest_size

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

let seal_into k s ~nonce plain ~len out ~pos =
  let body = pos + 16 in
  set_len out pos nonce_len;
  Bytes.set_int64_be out (pos + 4) nonce;
  set_len out (pos + 12) len;
  (* Read-only views for the length of this call: the nonce is written
     before and never after, the body before the tag reads it. *)
  let wire = Bytes.unsafe_to_string out in
  crypt k s wire ~noff:(pos + 4) ~nlen:nonce_len (Bytes.unsafe_to_string plain) ~spos:0 out
    ~dpos:body ~len;
  set_len out (body + len) Sha256.digest_size;
  tag_into k s wire ~noff:(pos + 4) ~nlen:nonce_len wire ~boff:body ~blen:len out
    ~pos:(body + len + 4)

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
