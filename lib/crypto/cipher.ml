type sealed = { nonce : string; body : string; tag : string }

let enc_key key = Sha256.digest ("cipher-enc|" ^ key)
let mac_key key = Sha256.digest ("cipher-mac|" ^ key)

let encode_nonce n =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 n;
  Bytes.unsafe_to_string b

let xor_with a b =
  assert (String.length a = String.length b);
  let n = String.length a in
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set out i
      (Char.unsafe_chr (Char.code (String.unsafe_get a i) lxor Char.code (String.unsafe_get b i)))
  done;
  Bytes.unsafe_to_string out

(* A prepared session key: both domain-separated subkeys derived once, the
   stream-cipher PRF and the MAC midstates precomputed.  Long-lived callers
   (the broadcast service, pairwise streams, the group-key dissemination)
   seal and open under one key for thousands of rounds. *)
type key = { enc : Prf.Keyed.t; mac : Hmac.key }

let key raw = { enc = Prf.Keyed.create (enc_key raw); mac = Hmac.key (mac_key raw) }

let tag_of k ~nonce body =
  Hmac.mac_feed k.mac (fun ctx ->
      Sha256.update ctx nonce;
      Sha256.update ctx body)

let seal_keyed k ~nonce plaintext =
  let nonce = encode_nonce nonce in
  let stream = Prf.Keyed.keystream k.enc ~nonce (String.length plaintext) in
  let body = xor_with plaintext stream in
  { nonce; body; tag = tag_of k ~nonce body }

let open_keyed k { nonce; body; tag } =
  if not (Hmac.equal_ct ~expect:(tag_of k ~nonce body) ~tag) then None
  else
    let stream = Prf.Keyed.keystream k.enc ~nonce (String.length body) in
    Some (xor_with body stream)

(* Reusable working state for the batch entry points: PRF and MAC scratch
   plus a growable keystream buffer and a tag buffer, so sealing or opening
   a whole epoch's worth of frames under one key allocates only the output
   strings themselves. *)
type scratch = {
  prf : Prf.Keyed.scratch;
  hmac_s : Hmac.scratch;
  mutable ks : Bytes.t; (* keystream, grown geometrically *)
  tag_buf : Bytes.t; (* 32 bytes *)
}

let scratch () =
  { prf = Prf.Keyed.scratch (); hmac_s = Hmac.scratch ();
    ks = Bytes.create 256; tag_buf = Bytes.create Sha256.digest_size }

let ensure_ks s len =
  if Bytes.length s.ks < len then s.ks <- Bytes.create (max len (2 * Bytes.length s.ks))

let[@inline] xor_into src ks out len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set out i
      (Char.unsafe_chr
         (Char.code (String.unsafe_get src i) lxor Char.code (Bytes.unsafe_get ks i)))
  done

let tag_into k s ~nonce body =
  Hmac.mac_feed_into k.mac s.hmac_s
    (fun ctx ->
      Sha256.update ctx nonce;
      Sha256.update ctx body)
    s.tag_buf ~pos:0

let seal_scratch k s ~nonce plaintext =
  let nonce = encode_nonce nonce in
  let len = String.length plaintext in
  ensure_ks s len;
  Prf.Keyed.keystream_into k.enc s.prf ~nonce s.ks ~pos:0 ~len;
  let body = Bytes.create len in
  xor_into plaintext s.ks body len;
  let body = Bytes.unsafe_to_string body in
  tag_into k s ~nonce body;
  { nonce; body; tag = Bytes.to_string s.tag_buf }

let open_scratch k s { nonce; body; tag } =
  tag_into k s ~nonce body;
  (* [tag_buf] is only read inside this comparison before the next frame
     overwrites it, so the unsafe view never escapes. *)
  if not (Hmac.equal_ct ~expect:(Bytes.unsafe_to_string s.tag_buf) ~tag) then None
  else begin
    let len = String.length body in
    ensure_ks s len;
    Prf.Keyed.keystream_into k.enc s.prf ~nonce s.ks ~pos:0 ~len;
    let out = Bytes.create len in
    xor_into body s.ks out len;
    Some (Bytes.unsafe_to_string out)
  end

let seal_batch k s ~nonces msgs =
  let n = Array.length msgs in
  if Array.length nonces <> n then invalid_arg "Cipher.seal_batch: length mismatch";
  Array.init n (fun i -> seal_scratch k s ~nonce:nonces.(i) msgs.(i))

let open_batch k s frames = Array.map (open_scratch k s) frames

let seal ~key:raw ~nonce plaintext = seal_keyed (key raw) ~nonce plaintext

let open_ ~key:raw sealed = open_keyed (key raw) sealed

let encoded_size { nonce; body; tag } =
  12 + String.length nonce + String.length body + String.length tag

(* Single-buffer encoding: the multiplexed service encodes one frame per
   busy channel per emulated round, so the concat-chain formulation's
   intermediate strings showed up in its prepare step. *)
let encode_into { nonce; body; tag } out ~pos =
  let field p s =
    let len = String.length s in
    Bytes.set_int32_be out p (Int32.of_int len);
    Bytes.blit_string s 0 out (p + 4) len;
    p + 4 + len
  in
  let p = field pos nonce in
  let p = field p body in
  ignore (field p tag : int)

let encode sealed =
  let out = Bytes.create (encoded_size sealed) in
  encode_into sealed out ~pos:0;
  Bytes.unsafe_to_string out

let decode_sub s ~pos =
  let read_len pos =
    if pos + 4 > String.length s then None
    else
      let v = ref 0 in
      for i = 0 to 3 do
        v := (!v lsl 8) lor Char.code s.[pos + i]
      done;
      Some (!v, pos + 4)
  in
  let read_field pos =
    match read_len pos with
    | None -> None
    | Some (len, pos) ->
      if len < 0 || pos + len > String.length s then None
      else Some (String.sub s pos len, pos + len)
  in
  match read_field pos with
  | None -> None
  | Some (nonce, pos) ->
    (match read_field pos with
     | None -> None
     | Some (body, pos) ->
       (match read_field pos with
        | Some (tag, pos) when pos = String.length s -> Some { nonce; body; tag }
        | _ -> None))

let decode s = decode_sub s ~pos:0
