(* Tests for the cryptographic substrate.  SHA-256 and HMAC are checked
   against the published NIST / RFC 4231 vectors; the arithmetic, DH, PRF,
   and cipher layers are checked for their algebraic contracts. *)

module Sha256 = Crypto.Sha256
module Hmac = Crypto.Hmac
module Modarith = Crypto.Modarith
module Dh = Crypto.Dh
module Prf = Crypto.Prf
module Cipher = Crypto.Cipher

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* -- SHA-256 standard vectors -- *)

let sha_empty () =
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "")

let sha_abc () =
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc")

let sha_two_blocks () =
  check Alcotest.string "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let sha_million_a () =
  check Alcotest.string "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let sha_length () =
  check Alcotest.int "digest size" 32 (String.length (Sha256.digest "anything"))

let sha_streaming_equals_oneshot =
  QCheck.Test.make ~name:"streaming = one-shot" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (String.length s - cut));
      Sha256.finalize ctx = Sha256.digest s)

let sha_distinct_inputs =
  QCheck.Test.make ~name:"distinct short inputs hash apart" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 64)) (string_of_size (Gen.int_range 0 64)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

(* -- SHA-256 known answers at every padding boundary.

   Digests of the counting message 0x00 0x01 .. ((n - 1) land 0xff),
   generated with python3 hashlib, so they do not depend on this library.
   Lengths 55/56, 63/64 and 119/120 sit on either side of the split
   between one and two padding blocks. *)

let counting n = String.init n (fun i -> Char.chr (i land 0xff))

let sha_padding_boundaries () =
  List.iter
    (fun (n, hex) ->
      check Alcotest.string (Printf.sprintf "length %d" n) hex
        (Sha256.digest_hex (counting n)))
    [ (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (1040, "6a4fc19e9047c6bf8c1131dceab3c202ef086d952e2e114e1f3e2372bd853338");
      (1048, "51233b7ce76dcf8e2438e5d948f5d79dec0967ed47c9426c6323fc9f05f609cb") ]

let sha_every_short_length () =
  (* One pin for all 131 lengths 0..130: the digest of their concatenated
     raw digests. *)
  let digests = String.concat "" (List.init 131 (fun n -> Sha256.digest (counting n))) in
  check Alcotest.string "lengths 0..130"
    "e5bbbecd60c3632a3455f465bfd8b079c30ef608d2bcc34227f4e5573029020e"
    (Sha256.digest_hex digests)

(* -- HMAC-SHA256 (RFC 4231) -- *)

let hmac_case1 () =
  check Alcotest.string "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There")

let hmac_case2 () =
  check Alcotest.string "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let hmac_long_key () =
  (* Keys longer than one block are pre-hashed; just assert stability and
     tag size. *)
  let tag = Hmac.mac ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key" in
  check Alcotest.int "tag size" 32 (String.length tag)

let hmac_verify_roundtrip =
  QCheck.Test.make ~name:"verify accepts correct tags" ~count:200
    QCheck.(pair string string)
    (fun (key, msg) -> Hmac.verify ~key ~tag:(Hmac.mac ~key msg) msg)

let hmac_verify_rejects_tamper =
  QCheck.Test.make ~name:"verify rejects flipped bit" ~count:200
    QCheck.(pair string (string_of_size (Gen.int_range 1 100)))
    (fun (key, msg) ->
      let tag = Bytes.of_string (Hmac.mac ~key msg) in
      Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
      not (Hmac.verify ~key ~tag:(Bytes.to_string tag) msg))

(* -- modular arithmetic -- *)

let mulmod_matches_small () =
  for a = 0 to 30 do
    for b = 0 to 30 do
      if a < 29 && b < 29 then
        check Alcotest.int
          (Printf.sprintf "%d*%d mod 29" a b)
          (a * b mod 29)
          (Int64.to_int (Modarith.mul_mod (Int64.of_int a) (Int64.of_int b) 29L))
    done
  done

let mulmod_large_no_overflow () =
  (* p close to 2^61: products would overflow naive multiplication. *)
  let p = 2305843009213693951L (* 2^61 - 1, prime *) in
  let a = Int64.sub p 2L and b = Int64.sub p 3L in
  (* (p-2)(p-3) mod p = 6 mod p *)
  check Alcotest.int64 "near-modulus product" 6L (Modarith.mul_mod a b p)

let powmod_fermat () =
  let p = 1000003L in
  List.iter
    (fun a -> check Alcotest.int64 "fermat little" 1L (Modarith.pow_mod a (Int64.sub p 1L) p))
    [ 2L; 3L; 999999L; 123456L ]

let inv_mod_works =
  QCheck.Test.make ~name:"inv_mod inverts" ~count:300
    QCheck.(int_range 1 1000002)
    (fun a ->
      let p = 1000003L in
      let a = Int64.of_int a in
      let inv = Modarith.inv_mod a p in
      Modarith.mul_mod (Int64.rem a p) inv p = 1L)

let miller_rabin_known () =
  List.iter
    (fun (x, expected) ->
      check Alcotest.bool (Int64.to_string x) expected (Modarith.is_probable_prime x))
    [ (0L, false); (1L, false); (2L, true); (3L, true); (4L, false); (17L, true);
      (561L, false) (* Carmichael *); (7919L, true); (1000003L, true);
      (2305843009213693951L, true) (* M61 *); (2305843009213693949L, false) ]

let safe_prime_properties () =
  List.iter
    (fun bits ->
      let p = Modarith.find_safe_prime ~bits ~seed:99L in
      check Alcotest.bool "p prime" true (Modarith.is_probable_prime p);
      let q = Int64.shift_right_logical (Int64.sub p 1L) 1 in
      check Alcotest.bool "q prime" true (Modarith.is_probable_prime q);
      let lo = Int64.shift_left 1L (bits - 1) and hi = Int64.shift_left 1L bits in
      check Alcotest.bool "bit length" true (p >= lo && p < hi))
    [ 16; 24; 32; 48 ]

let safe_prime_deterministic () =
  check Alcotest.int64 "same seed, same prime"
    (Modarith.find_safe_prime ~bits:32 ~seed:5L)
    (Modarith.find_safe_prime ~bits:32 ~seed:5L)

(* -- Diffie-Hellman -- *)

let dh_default_params_pinned () =
  (* The default group is a literal; it must be exactly what the generator
     produces from its documented seed. *)
  check Alcotest.bool "make_params ~bits:61 ~seed:0x5EC0DE2008L" true
    (Dh.make_params ~bits:61 ~seed:0x5EC0DE2008L = Dh.default_params)

let dh_params_sane () =
  let ps = Dh.default_params in
  check Alcotest.bool "p prime" true (Modarith.is_probable_prime ps.Dh.p);
  check Alcotest.bool "q prime" true (Modarith.is_probable_prime ps.Dh.q);
  check Alcotest.int64 "g has order q" 1L (Modarith.pow_mod ps.Dh.g ps.Dh.q ps.Dh.p)

let dh_agreement =
  QCheck.Test.make ~name:"dh both sides agree" ~count:50 QCheck.small_int (fun seed ->
      let rng = Prng.Rng.create (Int64.of_int (seed + 1)) in
      let a = Dh.generate rng and b = Dh.generate rng in
      Dh.shared_secret ~secret:a.Dh.secret b.Dh.public
      = Dh.shared_secret ~secret:b.Dh.secret a.Dh.public)

let dh_validation () =
  let ps = Dh.default_params in
  let rng = Prng.Rng.create 4L in
  let kp = Dh.generate rng in
  check Alcotest.bool "generated key valid" true (Dh.valid_public kp.Dh.public);
  check Alcotest.bool "0 invalid" false (Dh.valid_public 0L);
  check Alcotest.bool "1 invalid" false (Dh.valid_public 1L);
  check Alcotest.bool "p-1 invalid" false (Dh.valid_public (Int64.sub ps.Dh.p 1L))

let dh_encode_roundtrip =
  QCheck.Test.make ~name:"public key wire roundtrip" ~count:100 QCheck.small_int (fun seed ->
      let rng = Prng.Rng.create (Int64.of_int (seed + 7)) in
      let kp = Dh.generate rng in
      Dh.decode_public (Dh.encode_public kp.Dh.public) = Some kp.Dh.public)

let dh_derive_key_separates () =
  check Alcotest.bool "info separates keys" true
    (Dh.derive_key ~info:"a" 42L <> Dh.derive_key ~info:"b" 42L)

(* -- PRF -- *)

let prf_deterministic () =
  check Alcotest.string "same inputs same output"
    (Sha256.hex_of (Prf.bytes ~key:"k" ~label:"l" ~counter:3))
    (Sha256.hex_of (Prf.bytes ~key:"k" ~label:"l" ~counter:3))

let prf_label_separation () =
  check Alcotest.bool "labels separate" true
    (Prf.bytes ~key:"k" ~label:"a" ~counter:0 <> Prf.bytes ~key:"k" ~label:"b" ~counter:0)

let prf_channel_hop_range =
  QCheck.Test.make ~name:"channel_hop in range" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 64))
    (fun (round, channels) ->
      let c = Prf.channel_hop ~key:"shared" ~round ~channels in
      c >= 0 && c < channels)

let prf_keystream_length =
  QCheck.Test.make ~name:"keystream length exact" ~count:100 (QCheck.int_range 0 500)
    (fun len -> String.length (Prf.keystream ~key:"k" ~nonce:"n" len) = len)

(* -- keyed fast paths: byte-identical to the one-shot forms.

   The simulator's determinism contract rests on these equalities: the
   prepared-handle paths (HMAC midstate caching, incremental SHA-256
   feeding, exact-length keystream) must agree with the naive forms on
   every byte, for every input. *)

let sha_feed_string_equals_update =
  QCheck.Test.make ~name:"feed_string windows = one-shot" ~count:300
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) (int_range 0 300) (int_range 0 300))
    (fun (s, a, b) ->
      (* Split s into [0,cut1), [cut1,cut2), [cut2,len) and feed the three
         windows through feed_string ~off ~len. *)
      let len = String.length s in
      let cut1 = min a len in
      let cut2 = cut1 + min b (len - cut1) in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx s ~off:0 ~len:cut1;
      Sha256.feed_string ctx s ~off:cut1 ~len:(cut2 - cut1);
      Sha256.feed_string ctx s ~off:cut2 ~len:(len - cut2);
      Sha256.finalize ctx = Sha256.digest s)

let hmac_keyed_equals_oneshot =
  QCheck.Test.make ~name:"mac_keyed = mac" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 100)) (string_of_size (Gen.int_range 0 300)))
    (fun (key, msg) -> Hmac.mac_keyed (Hmac.key key) msg = Hmac.mac ~key msg)

let hmac_keyed_reusable () =
  let handle = Hmac.key "reused-key" in
  check Alcotest.string "handle is reusable across messages"
    (Sha256.hex_of (Hmac.mac ~key:"reused-key" "second"))
    (Sha256.hex_of
       (let _ = Hmac.mac_keyed handle "first" in
        Hmac.mac_keyed handle "second"))

let hmac_verify_wrong_length =
  QCheck.Test.make ~name:"verify rejects truncated/extended tags" ~count:200
    QCheck.(pair string (int_range 0 40))
    (fun (msg, cut) ->
      let tag = Hmac.mac ~key:"k" msg in
      let truncated = String.sub tag 0 (min cut (String.length tag)) in
      let extended = tag ^ "\000" in
      (not (Hmac.verify ~key:"k" ~tag:extended msg))
      && (String.length truncated = String.length tag
          || not (Hmac.verify ~key:"k" ~tag:truncated msg)))

let prf_keyed_equals_oneshot =
  QCheck.Test.make ~name:"Keyed.bytes = bytes" ~count:300
    QCheck.(
      quad
        (string_of_size (Gen.int_range 0 100))
        (string_of_size (Gen.int_range 0 50))
        (int_range 0 1_000_000) (int_range 1 1024))
    (fun (key, label, counter, channels) ->
      let keyed = Prf.Keyed.create key in
      Prf.Keyed.bytes keyed ~label ~counter = Prf.bytes ~key ~label ~counter
      && Prf.Keyed.int64 keyed ~label ~counter = Prf.int64 ~key ~label ~counter
      && Prf.Keyed.below keyed ~label ~counter channels
         = Prf.below ~key ~label ~counter channels
      && Prf.Keyed.channel_hop keyed ~round:counter ~channels
         = Prf.channel_hop ~key ~round:counter ~channels)

let prf_keyed_keystream_equals_oneshot =
  QCheck.Test.make ~name:"Keyed.keystream = keystream" ~count:200
    QCheck.(
      triple
        (string_of_size (Gen.int_range 0 100))
        (string_of_size (Gen.int_range 0 20))
        (int_range 0 500))
    (fun (key, nonce, len) ->
      Prf.Keyed.keystream (Prf.Keyed.create key) ~nonce len = Prf.keystream ~key ~nonce len)

(* -- authenticated cipher -- *)

let cipher_roundtrip =
  QCheck.Test.make ~name:"seal/open roundtrip" ~count:300
    QCheck.(triple string small_int string)
    (fun (key, nonce, plaintext) ->
      let sealed = Cipher.seal ~key ~nonce:(Int64.of_int nonce) plaintext in
      Cipher.open_ ~key sealed = Some plaintext)

let cipher_rejects_wrong_key =
  QCheck.Test.make ~name:"wrong key rejected" ~count:100
    QCheck.(pair string string)
    (fun (key, plaintext) ->
      let sealed = Cipher.seal ~key ~nonce:1L plaintext in
      Cipher.open_ ~key:(key ^ "x") sealed = None)

let cipher_rejects_tamper () =
  let sealed = Cipher.seal ~key:"k" ~nonce:9L "attack at dawn" in
  let body = Bytes.of_string sealed.Cipher.body in
  if Bytes.length body > 0 then
    Bytes.set body 0 (Char.chr (Char.code (Bytes.get body 0) lxor 0x80));
  check
    (Alcotest.option Alcotest.string)
    "tampered body rejected" None
    (Cipher.open_ ~key:"k" { sealed with Cipher.body = Bytes.to_string body })

let cipher_hides_plaintext () =
  let plaintext = "super secret content here" in
  let sealed = Cipher.seal ~key:"key" ~nonce:4L plaintext in
  (* The ciphertext must not contain the plaintext as a substring. *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "ciphertext opaque" false (contains sealed.Cipher.body plaintext)

let cipher_wire_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200
    QCheck.(pair string string)
    (fun (key, plaintext) ->
      let sealed = Cipher.seal ~key ~nonce:2L plaintext in
      match Cipher.decode (Cipher.encode sealed) with
      | Some s -> Cipher.open_ ~key s = Some plaintext
      | None -> false)

let cipher_decode_garbage =
  QCheck.Test.make ~name:"decode rejects garbage gracefully" ~count:200
    (QCheck.string_of_size (QCheck.Gen.int_range 0 50))
    (fun junk ->
      match Cipher.decode junk with
      | None -> true
      | Some sealed -> Cipher.encode sealed = junk)

(* -- PRF keystream and cipher known answers, generated with python3
   hashlib/hmac: keystream block [i] is HMAC-SHA256's inner hash alone,
   SHA-256(ipad || "ks|" || nonce || 0x00 || i_be64) with ipad the
   zero-padded key XOR 0x36, and a sealed frame is that stream under
   SHA-256("cipher-enc|" || key) XORed into the plaintext, tagged with
   HMAC-SHA256(SHA-256("cipher-mac|" || key), nonce_be64 || body).  The
   keystream pins come from

     python3 -c 'import hashlib; k, n = b"prf-kat-key", (7).to_bytes(8, "big"); ks = b"".join(
       hashlib.sha256(bytes(c ^ 0x36 for c in k.ljust(64, b"\0")) + b"ks|" + n + b"\0"
       + i.to_bytes(8, "big")).digest() for i in range(33)); print(ks[:33].hex(),
       hashlib.sha256(ks[:1040]).hexdigest())'

   The keyed-vs-naive properties above compare two routes through the
   same compression function; these do not. *)

let prf_keystream_vectors () =
  let keyed = Prf.Keyed.create "prf-kat-key" in
  let nonce = "\000\000\000\000\000\000\000\007" in
  let stream len = Prf.Keyed.keystream keyed ~nonce len in
  List.iter
    (fun (len, hex) ->
      check Alcotest.string (Printf.sprintf "length %d" len) hex (Sha256.hex_of (stream len)))
    [ (0, "");
      (1, "4c");
      (31, "4cc9ed88e3090b8bba9ba35d3a6ac628cb212c2c2eff6703ab7bf7627f7a76");
      (32, "4cc9ed88e3090b8bba9ba35d3a6ac628cb212c2c2eff6703ab7bf7627f7a7640");
      (33, "4cc9ed88e3090b8bba9ba35d3a6ac628cb212c2c2eff6703ab7bf7627f7a7640f1") ];
  check Alcotest.string "length 1040 (its SHA-256)"
    "b7bd236af0ac956ec0e2490d2c2d9199c74238e3c651f5730e2ebb465727f3be"
    (Sha256.digest_hex (stream 1040))

let cipher_seal_vector () =
  (* The nonce has its top bit set, so the big-endian encoding of a
     negative [int64] is pinned too. *)
  let nonce = 0x8102030405060708L and plain = "attack at dawn, 33 bytes of text!" in
  let sealed = Cipher.seal ~key:"cipher-kat-key" ~nonce plain in
  check Alcotest.string "nonce" "8102030405060708" (Sha256.hex_of sealed.Cipher.nonce);
  check Alcotest.string "body"
    "fde0f8b2d2b0d7a1db659c2d0fa0ad9be281aeedfca1ea685d0626b88c0d0ec9b1"
    (Sha256.hex_of sealed.Cipher.body);
  check Alcotest.string "tag"
    "db626191a33f03cb219da30ec1c3be12e25380bd5dee8f0ada3f855147bf1c07"
    (Sha256.hex_of sealed.Cipher.tag);
  (* The same answer through the in-place path, both ways. *)
  let ck = Cipher.key "cipher-kat-key" and s = Cipher.scratch () in
  let len = String.length plain in
  let out = Bytes.create (Cipher.frame_size len) in
  Cipher.seal_into ck s ~nonce (Bytes.of_string plain) ~len out ~pos:0;
  let frame = Bytes.to_string out in
  check Alcotest.string "seal_into frame" (Cipher.encode sealed) frame;
  check Alcotest.int "open_into length" len (Cipher.open_into ck s frame ~pos:0);
  check Alcotest.string "open_into plaintext" plain (Bytes.sub_string (Cipher.plain s) 0 len)

(* The hop PRF stays HMAC-SHA256 while the keystream is only its inner
   hash: [Keyed.bytes] is HMAC(key, label || 0x00 || counter_be64),
   [below] its first 8 bytes big-endian, shifted right by one, mod the
   bound, and [channel_hop] is [below] under the label "channel-hop".
   Pinned from

     python3 -c 'import hmac; f=lambda l,c: hmac.new(b"prf-hop-key",
       l+b"\0"+c.to_bytes(8,"big"),"sha256").digest(); print(f(b"hop-kat",5).hex(),
       [(int.from_bytes(f(l,c)[:8],"big")>>1)%b for l,c,b in
        [(b"hop-kat",5,1000),(b"hop-kat",6,7),(b"channel-hop",0,16),
         (b"channel-hop",1,16),(b"channel-hop",2,1024),(b"channel-hop",1000000,1024)]])' *)
let prf_hop_vectors () =
  let keyed = Prf.Keyed.create "prf-hop-key" in
  check Alcotest.string "bytes"
    "19bf1dd4925bc12fe62d5968664190da6de95cccfe491877037077434d2e7ac2"
    (Sha256.hex_of (Prf.Keyed.bytes keyed ~label:"hop-kat" ~counter:5));
  check Alcotest.int "below 1000" 359 (Prf.Keyed.below keyed ~label:"hop-kat" ~counter:5 1000);
  check Alcotest.int "below 7" 2 (Prf.Keyed.below keyed ~label:"hop-kat" ~counter:6 7);
  List.iter
    (fun (round, channels, expect) ->
      check Alcotest.int
        (Printf.sprintf "channel_hop round %d of %d" round channels)
        expect
        (Prf.Keyed.channel_hop keyed ~round ~channels))
    [ (0, 16, 1); (1, 16, 7); (2, 1024, 974); (1_000_000, 1024, 797) ]

(* -- steady-state allocation of the MAC, keystream and seal paths.

   Each case warms up once, then averages [Gc.minor_words] over many calls;
   the counter reads box a float or two, which the division makes
   negligible.  The closures passed in are built before measuring. *)

let minor_words_per_call f =
  f ();
  let iters = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let hmac_mac_feed_into_no_alloc () =
  let k = Hmac.key "alloc-key" and s = Hmac.scratch () in
  let msg = counting 200 and out = Bytes.create Sha256.digest_size in
  let feed ctx = Sha256.update ctx msg in
  let words = minor_words_per_call (fun () -> Hmac.mac_feed_into k s feed out ~pos:0) in
  if words > 0.01 then Alcotest.failf "Hmac.mac_feed_into allocates %.3f words/call" words

let prf_keystream_into_constant_alloc () =
  let keyed = Prf.Keyed.create "alloc-key" and s = Prf.Keyed.scratch () in
  let out = Bytes.create 4096 in
  let words len =
    minor_words_per_call (fun () ->
        Prf.Keyed.keystream_into keyed s ~nonce:"01234567" ~nonce_off:0 ~nonce_len:8 out ~pos:0
          ~len)
  in
  let short = words 32 and long = words 4096 in
  (* One [feed] closure per call, never one per block. *)
  if short > 8. || Float.abs (long -. short) > 0.01 then
    Alcotest.failf "keystream_into allocates %.3f words at 32 B, %.3f at 4096 B" short long

(* The in-place path writes only the caller's frame buffer and the
   scratch: its allocation is the keystream's and the tag's feed closures
   (16 words), the same at 32 B as at 1 KiB. *)
let cipher_in_place_alloc () =
  let ck = Cipher.key "alloc-key" and s = Cipher.scratch () in
  let words len =
    let plain = Bytes.of_string (counting len) in
    let out = Bytes.create (Cipher.frame_size len) in
    let seal =
      minor_words_per_call (fun () -> Cipher.seal_into ck s ~nonce:1L plain ~len out ~pos:0)
    in
    let blob = Bytes.to_string out in
    (seal, minor_words_per_call (fun () -> ignore (Cipher.open_into ck s blob ~pos:0)))
  in
  let seal_short, open_short = words 32 and seal_long, open_long = words 1040 in
  List.iter
    (fun (what, short, long) ->
      if short > 16. || Float.abs (long -. short) > 0.01 then
        Alcotest.failf "%s allocates %.2f words at 32 B, %.2f at 1040 B" what short long)
    [ ("seal_into", seal_short, seal_long); ("open_into", open_short, open_long) ]

(* Blob mangles for the in-place open, on top of an honest frame. *)
type mangle =
  | Honest
  | Garbage of string
  | Truncate of int
  | Flip of int
  | Length of int * int  (** field 0..2 (nonce, body, tag) gets this length *)
  | Splice_body
  | Splice_tag
  | Wrong_key

let mangle_gen =
  QCheck.Gen.(
    oneof
      [ return Honest;
        map (fun g -> Garbage g) (string_size (int_bound 120));
        map (fun i -> Truncate i) nat;
        map (fun i -> Flip i) nat;
        map2 (fun f v -> Length (f, v)) (int_bound 2)
          (oneof [ int_bound 300; map (fun x -> x land 0xFFFF_FFFF) int ]);
        return Splice_body;
        return Splice_tag;
        return Wrong_key ])

let cipher_seal_into_equals_encode =
  QCheck.Test.make ~name:"seal_into = encode (seal) at its offset" ~count:200
    QCheck.(
      quad
        (string_of_size (Gen.int_range 0 60))
        int64
        (string_of_size (Gen.int_range 0 200))
        (int_range 0 9))
    (fun (key, nonce, plaintext, pos) ->
      let ck = Cipher.key key and s = Cipher.scratch () in
      let len = String.length plaintext in
      let size = Cipher.frame_size len in
      let out = Bytes.make (pos + size + 3) 'Z' in
      (* Only the first [len] bytes of the plaintext buffer are sealed. *)
      Cipher.seal_into ck s ~nonce (Bytes.of_string (plaintext ^ "tail")) ~len out ~pos;
      let expect = Cipher.encode (Cipher.seal ~key ~nonce plaintext) in
      String.length expect = size
      && Bytes.sub_string out pos size = expect
      && Bytes.sub_string out 0 pos = String.make pos 'Z'
      && Bytes.sub_string out (pos + size) 3 = "ZZZ")

let cipher_open_into_agrees =
  QCheck.Test.make ~name:"open_into = decode + open_ on mangled frames" ~count:500
    QCheck.(
      make
        Gen.(
          quad (string_size (int_bound 40)) (string_size (int_bound 100)) (int_bound 6)
            mangle_gen))
    (fun (key, plaintext, prefix, mangle) ->
      let s = Cipher.scratch () in
      let sealed = Cipher.seal ~key ~nonce:7L plaintext in
      let other = Cipher.seal ~key ~nonce:8L (plaintext ^ "!") in
      let honest = Cipher.encode sealed in
      let blob =
        match mangle with
        | Honest | Wrong_key -> honest
        | Garbage g -> g
        | Truncate i -> String.sub honest 0 (i mod String.length honest)
        | Flip i ->
          let b = Bytes.of_string honest and k = i mod (8 * String.length honest) in
          let flipped = Char.code (Bytes.get b (k / 8)) lxor (1 lsl (k mod 8)) in
          Bytes.set b (k / 8) (Char.chr flipped);
          Bytes.to_string b
        | Length (field, v) ->
          let b = Bytes.of_string honest in
          let at = [| 0; 12; 16 + String.length plaintext |].(field) in
          Bytes.set_int32_be b at (Int32.of_int v);
          Bytes.to_string b
        | Splice_body -> Cipher.encode { sealed with Cipher.body = other.Cipher.body }
        | Splice_tag -> Cipher.encode { sealed with Cipher.tag = other.Cipher.tag }
      in
      let raw = match mangle with Wrong_key -> key ^ "x" | _ -> key in
      let wire = String.make prefix '#' ^ blob in
      let expect = Option.bind (Cipher.decode blob) (Cipher.open_ ~key:raw) in
      let got =
        match Cipher.open_into (Cipher.key raw) s wire ~pos:prefix with
        | n when n < 0 -> None
        | n -> Some (Bytes.sub_string (Cipher.plain s) 0 n)
      in
      let decoded = Cipher.decode blob in
      (* [decode] shares the parser: it must also give back exactly [blob]. *)
      Option.fold ~none:true ~some:(fun d -> Cipher.encode d = blob) decoded
      && Cipher.framed wire ~pos:prefix = Option.is_some decoded
      && got = expect)

(* A frame re-encoded with a 0-, 7-, 9- or 16-byte nonce, under a tag
   recomputed for that nonce, so the MAC would accept it: every open path
   must still reject it, on the nonce's length alone.  The re-tag is
   checked against the honest frame's tag first, so the property cannot
   pass vacuously on a tag that fails anyway. *)
let cipher_rejects_odd_nonce =
  QCheck.Test.make ~name:"every open rejects a nonce that is not 8 bytes" ~count:200
    QCheck.(
      triple
        (string_of_size (Gen.int_range 0 40))
        (string_of_size (Gen.int_range 0 100))
        (oneofl [ 0; 7; 9; 16 ]))
    (fun (key, plaintext, nlen) ->
      let ck = Cipher.key key and s = Cipher.scratch () in
      let sealed = Cipher.seal ~key ~nonce:7L plaintext in
      let mac_key = Sha256.digest ("cipher-mac|" ^ key) in
      let retag nonce = Hmac.mac ~key:mac_key (nonce ^ sealed.body) in
      let nonce = String.init nlen (fun i -> if i < 8 then sealed.nonce.[i] else '\xab') in
      let odd = { sealed with Cipher.nonce; tag = retag nonce } in
      retag sealed.nonce = sealed.tag
      && Cipher.open_ ~key odd = None
      && Cipher.open_batch ck s [| odd |] = [| None |]
      && Cipher.open_into ck s (Cipher.encode odd) ~pos:0 = -1
      && Cipher.open_ ~key sealed = Some plaintext)

(* -- batch entry points: byte-identical to the one-shot per-message forms.

   The mux service A/Bs batched against per-message crypto and asserts the
   outputs are byte-identical; these properties are the foundation of that
   claim.  One scratch is deliberately reused across the whole batch (and
   across batches) to exercise buffer-reuse bugs. *)

let batch_gen =
  QCheck.(
    pair
      (string_of_size (Gen.int_range 0 60))
      (small_list (string_of_size (Gen.int_range 0 120))))

let sha_copy_into_equals_copy =
  QCheck.Test.make ~name:"copy_into midstate = copy" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) (string_of_size (Gen.int_range 0 200)))
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.update ctx a;
      let spare = Sha256.init () in
      Sha256.copy_into ctx ~into:spare;
      Sha256.update spare b;
      let into = Bytes.create Sha256.digest_size in
      Sha256.finalize_into spare into ~pos:0;
      Bytes.to_string into = Sha256.digest (a ^ b))

let hmac_mac_batch_equals_keyed =
  QCheck.Test.make ~name:"mac_batch = mac_keyed per element" ~count:200 batch_gen
    (fun (key, msgs) ->
      let k = Hmac.key key in
      let batch = Hmac.mac_batch k (Array.of_list msgs) in
      List.for_all2
        (fun m tag -> String.equal tag (Hmac.mac_keyed k m))
        msgs (Array.to_list batch))

let hmac_verify_batch_equals_keyed =
  QCheck.Test.make ~name:"verify_batch accepts right, rejects flipped" ~count:200 batch_gen
    (fun (key, msgs) ->
      let k = Hmac.key key in
      let arr = Array.of_list msgs in
      let tags = Hmac.mac_batch k arr in
      let ok = Hmac.verify_batch k ~tags arr in
      let flipped =
        Array.map
          (fun tag ->
            let b = Bytes.of_string tag in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            Bytes.to_string b)
          tags
      in
      let bad = Hmac.verify_batch k ~tags:flipped arr in
      Array.for_all Fun.id ok && not (Array.exists Fun.id bad))

let prf_keystream_into_equals_keystream =
  QCheck.Test.make ~name:"keystream_into = keystream (shared scratch, offsets)" ~count:200
    QCheck.(
      quad
        (string_of_size (Gen.int_range 0 60))
        (string_of_size (Gen.int_range 0 20))
        (int_range 0 300) (int_range 0 7))
    (fun (key, nonce, len, pos) ->
      let keyed = Prf.Keyed.create key in
      let scratch = Prf.Keyed.scratch () in
      let out = Bytes.make (pos + len) 'Z' in
      (* The nonce is read in place, as a slice of a wider frame. *)
      Prf.Keyed.keystream_into keyed scratch ~nonce:("<<" ^ nonce ^ ">>>") ~nonce_off:2
        ~nonce_len:(String.length nonce) out ~pos ~len;
      (* The CTR construction spelled out through [Sha256] alone: block
         [i] is the digest of the ipad block, "ks|", the nonce, 0x00 and
         [i] big-endian. *)
      let k = if String.length key > 64 then Sha256.digest key else key in
      let ipad =
        String.init 64 (fun j ->
            Char.chr ((if j < String.length k then Char.code k.[j] else 0) lxor 0x36))
      in
      let blocks =
        String.concat ""
          (List.init ((len + 31) / 32) (fun i ->
               let counter = Bytes.create 8 in
               Bytes.set_int64_be counter 0 (Int64.of_int i);
               Sha256.digest (ipad ^ "ks|" ^ nonce ^ "\000" ^ Bytes.to_string counter)))
      in
      Bytes.sub_string out pos len = Prf.Keyed.keystream keyed ~nonce len
      && Bytes.sub_string out pos len = String.sub blocks 0 len
      (* bytes before [pos] untouched *)
      && String.for_all (Char.equal 'Z') (Bytes.sub_string out 0 pos))

let cipher_batch_equals_oneshot =
  QCheck.Test.make ~name:"seal_batch/open_batch = seal/open_" ~count:200
    batch_gen
    (fun (key, msgs) ->
      let ck = Cipher.key key in
      let scratch = Cipher.scratch () in
      let arr = Array.of_list msgs in
      let nonces = Array.mapi (fun i _ -> Int64.of_int (i * 7)) arr in
      let batch = Cipher.seal_batch ck scratch ~nonces arr in
      let singles = Array.mapi (fun i m -> Cipher.seal ~key ~nonce:nonces.(i) m) arr in
      let same_bytes =
        Array.for_all2
          (fun a b -> String.equal (Cipher.encode a) (Cipher.encode b))
          batch singles
      in
      let reopened = Cipher.open_batch ck scratch batch in
      let roundtrip =
        Array.for_all2
          (fun opened m ->
            match opened with Some p -> String.equal p m | None -> false)
          reopened arr
      in
      same_bytes && roundtrip)

(* The secure-channel service fans its per-frame crypto out over domains
   under one shared prepared key, each chunk with its own scratch.  That is
   sound only if the batch entry points read the key and never write it:
   two domains hammering one key at once must each get the serial bytes. *)
let cipher_shared_key_concurrent =
  QCheck.Test.make ~name:"seal_batch/open_batch/mac_batch on 2 domains under one key = serial"
    ~count:20 batch_gen
    (fun (key, msgs) ->
      let ck = Cipher.key key and hk = Hmac.key key in
      let arr = Array.of_list msgs in
      let nonces = Array.mapi (fun i _ -> Int64.of_int (i * 7)) arr in
      let encode = Array.map Cipher.encode in
      let sealed = Cipher.seal_batch ck (Cipher.scratch ()) ~nonces arr in
      let serial =
        (encode sealed, Cipher.open_batch ck (Cipher.scratch ()) sealed, Hmac.mac_batch hk arr)
      in
      let hammer () =
        let scratch = Cipher.scratch () in
        List.for_all
          (fun _ ->
            let s = Cipher.seal_batch ck scratch ~nonces arr in
            (encode s, Cipher.open_batch ck scratch s, Hmac.mac_batch hk arr) = serial)
          (List.init 25 Fun.id)
      in
      let other = Domain.spawn hammer in
      let here = hammer () in
      Domain.join other && here)

let cipher_batch_rejects_cross_frame_tamper () =
  (* Swapping tags between two frames of one batch must fail both opens:
     scratch reuse must not leak one frame's MAC state into the next. *)
  let ck = Cipher.key "batch-key" in
  let scratch = Cipher.scratch () in
  let sealed =
    Cipher.seal_batch ck scratch ~nonces:[| 1L; 2L |] [| "first frame"; "other frame" |]
  in
  let swapped =
    [| { sealed.(0) with Cipher.tag = sealed.(1).Cipher.tag };
       { sealed.(1) with Cipher.tag = sealed.(0).Cipher.tag } |]
  in
  let opened = Cipher.open_batch ck scratch swapped in
  check Alcotest.bool "both rejected" true (Array.for_all (fun o -> o = None) opened)

let batch_length_mismatch () =
  let ck = Cipher.key "k" and k = Hmac.key "k" in
  let scratch = Cipher.scratch () in
  Alcotest.check_raises "seal_batch mismatch"
    (Invalid_argument "Cipher.seal_batch: length mismatch") (fun () ->
      ignore (Cipher.seal_batch ck scratch ~nonces:[| 1L |] [| "a"; "b" |]));
  Alcotest.check_raises "verify_batch mismatch"
    (Invalid_argument "Hmac.verify_batch: length mismatch") (fun () ->
      ignore (Hmac.verify_batch k ~tags:[| "t" |] [| "a"; "b" |]))

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty vector" `Quick sha_empty;
          Alcotest.test_case "abc vector" `Quick sha_abc;
          Alcotest.test_case "two-block vector" `Quick sha_two_blocks;
          Alcotest.test_case "million-a vector" `Slow sha_million_a;
          Alcotest.test_case "digest length" `Quick sha_length;
          qcheck sha_streaming_equals_oneshot;
          qcheck sha_feed_string_equals_update;
          qcheck sha_copy_into_equals_copy;
          qcheck sha_distinct_inputs;
          Alcotest.test_case "padding boundary vectors" `Quick sha_padding_boundaries;
          Alcotest.test_case "every length 0..130" `Quick sha_every_short_length ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case 1" `Quick hmac_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick hmac_case2;
          Alcotest.test_case "long key" `Quick hmac_long_key;
          qcheck hmac_verify_roundtrip;
          qcheck hmac_verify_rejects_tamper;
          qcheck hmac_keyed_equals_oneshot;
          Alcotest.test_case "keyed handle reusable" `Quick hmac_keyed_reusable;
          qcheck hmac_verify_wrong_length;
          qcheck hmac_mac_batch_equals_keyed;
          qcheck hmac_verify_batch_equals_keyed ] );
      ( "modarith",
        [ Alcotest.test_case "mulmod small reference" `Quick mulmod_matches_small;
          Alcotest.test_case "mulmod large" `Quick mulmod_large_no_overflow;
          Alcotest.test_case "fermat" `Quick powmod_fermat;
          Alcotest.test_case "miller-rabin knowns" `Quick miller_rabin_known;
          Alcotest.test_case "safe prime properties" `Quick safe_prime_properties;
          Alcotest.test_case "safe prime deterministic" `Quick safe_prime_deterministic;
          qcheck inv_mod_works ] );
      ( "dh",
        [ Alcotest.test_case "params sane" `Quick dh_params_sane;
          Alcotest.test_case "default params pinned" `Quick dh_default_params_pinned;
          Alcotest.test_case "public validation" `Quick dh_validation;
          Alcotest.test_case "derive separates" `Quick dh_derive_key_separates;
          qcheck dh_agreement;
          qcheck dh_encode_roundtrip ] );
      ( "prf",
        [ Alcotest.test_case "deterministic" `Quick prf_deterministic;
          Alcotest.test_case "label separation" `Quick prf_label_separation;
          qcheck prf_channel_hop_range;
          qcheck prf_keystream_length;
          qcheck prf_keyed_equals_oneshot;
          qcheck prf_keyed_keystream_equals_oneshot;
          qcheck prf_keystream_into_equals_keystream;
          Alcotest.test_case "keystream vectors" `Quick prf_keystream_vectors;
          Alcotest.test_case "hop vectors" `Quick prf_hop_vectors ] );
      ( "cipher",
        [ Alcotest.test_case "rejects tamper" `Quick cipher_rejects_tamper;
          Alcotest.test_case "hides plaintext" `Quick cipher_hides_plaintext;
          qcheck cipher_roundtrip;
          qcheck cipher_rejects_wrong_key;
          qcheck cipher_wire_roundtrip;
          qcheck cipher_decode_garbage;
          Alcotest.test_case "seal vector" `Quick cipher_seal_vector;
          qcheck cipher_batch_equals_oneshot;
          qcheck cipher_shared_key_concurrent;
          Alcotest.test_case "batch cross-frame tamper" `Quick
            cipher_batch_rejects_cross_frame_tamper;
          Alcotest.test_case "batch length mismatch" `Quick batch_length_mismatch;
          qcheck cipher_seal_into_equals_encode;
          qcheck cipher_open_into_agrees;
          qcheck cipher_rejects_odd_nonce ] );
      ( "alloc",
        [ Alcotest.test_case "mac_feed_into allocation-free" `Quick
            hmac_mac_feed_into_no_alloc;
          Alcotest.test_case "keystream_into constant in length" `Quick
            prf_keystream_into_constant_alloc;
          Alcotest.test_case "in-place seal and open" `Quick cipher_in_place_alloc ] ) ]
