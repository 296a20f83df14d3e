(* Tests for the cryptographic substrate.  SHA-256 and HMAC are checked
   against the published NIST / RFC 4231 vectors, ChaCha20, Poly1305 and
   the cipher against known answers from python3 [cryptography]; the
   arithmetic, DH, PRF, and cipher layers are checked for their algebraic
   contracts. *)

module Sha256 = Crypto.Sha256
module Hmac = Crypto.Hmac
module Modarith = Crypto.Modarith
module Dh = Crypto.Dh
module Prf = Crypto.Prf
module Chacha20 = Crypto.Chacha20
module Poly1305 = Crypto.Poly1305
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
    (Sha256.hex_of (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"))

let hmac_case2 () =
  check Alcotest.string "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex_of (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let hmac_long_key () =
  (* Keys longer than one block are pre-hashed; just assert stability and
     tag size. *)
  let tag = Hmac.mac ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key" in
  check Alcotest.int "tag size" 32 (String.length tag)

(* Tag acceptance as the library checks a tag: the expected tag against
   the received one with {!Hmac.equal_ct_sub}, the constant-time compare
   under the cipher's tag check and {!Hmac.verify_batch}. *)
let verify ~key ~tag msg =
  Hmac.equal_ct_sub ~expect:(Bytes.of_string (Hmac.mac ~key msg)) tag ~pos:0
    ~len:(String.length tag)

let hmac_verify_roundtrip =
  QCheck.Test.make ~name:"verify accepts correct tags" ~count:200
    QCheck.(pair string string)
    (fun (key, msg) -> verify ~key ~tag:(Hmac.mac ~key msg) msg)

let hmac_verify_rejects_tamper =
  QCheck.Test.make ~name:"verify rejects flipped bit" ~count:200
    QCheck.(triple string (string_of_size (Gen.int_range 1 100)) (int_range 0 255))
    (fun (key, msg, bit) ->
      let tag = Bytes.of_string (Hmac.mac ~key msg) in
      let i = bit / 8 in
      Bytes.set tag i (Char.chr (Char.code (Bytes.get tag i) lxor (1 lsl (bit land 7))));
      not (verify ~key ~tag:(Bytes.to_string tag) msg))

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
    (Sha256.hex_of (Prf.Keyed.bytes (Prf.Keyed.create "k") ~label:"l" ~counter:3))
    (Sha256.hex_of (Prf.Keyed.bytes (Prf.Keyed.create "k") ~label:"l" ~counter:3))

let prf_label_separation () =
  let k = Prf.Keyed.create "k" in
  check Alcotest.bool "labels separate" true
    (Prf.Keyed.bytes k ~label:"a" ~counter:0 <> Prf.Keyed.bytes k ~label:"b" ~counter:0)

(* A channel hop: [below] under the hop label with the round as counter,
   as [Service.hop] and the mux draw it. *)
let prf_channel_hop_range =
  let k = Prf.Keyed.create "shared" in
  QCheck.Test.make ~name:"channel_hop in range" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 64))
    (fun (round, channels) ->
      let c = Prf.Keyed.below k ~label:"channel-hop" ~counter:round channels in
      c >= 0 && c < channels)

(* -- keyed fast paths: byte-identical to the one-shot forms.

   The simulator's determinism contract rests on these equalities: the
   prepared-handle paths (HMAC midstate caching, incremental SHA-256
   feeding) must agree with the naive forms on
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
      (* One byte too long, its first 32 bytes the tag: only the length
         tells it apart. *)
      let echoed = tag ^ String.sub tag 0 1 in
      (not (verify ~key:"k" ~tag:extended msg))
      && (not (verify ~key:"k" ~tag:echoed msg))
      && (String.length truncated = String.length tag
          || not (verify ~key:"k" ~tag:truncated msg)))

(* The PRF's definition, built naively: one-shot HMAC over the
   concatenated message, the top 63 bits of its first 8 bytes mod the
   bound. *)
let prf_keyed_equals_oneshot =
  QCheck.Test.make ~name:"Keyed = one-shot HMAC" ~count:300
    QCheck.(
      quad
        (string_of_size (Gen.int_range 0 100))
        (string_of_size (Gen.int_range 0 50))
        (int_range 0 1_000_000) (int_range 1 1024))
    (fun (key, label, counter, channels) ->
      let keyed = Prf.Keyed.create key in
      let be8 = Bytes.create 8 in
      Bytes.set_int64_be be8 0 (Int64.of_int counter);
      let oneshot = Hmac.mac ~key (label ^ "\000" ^ Bytes.to_string be8) in
      let v = Int64.shift_right_logical (String.get_int64_be oneshot 0) 1 in
      Prf.Keyed.bytes keyed ~label ~counter = oneshot
      && Prf.Keyed.below keyed ~label ~counter channels
         = Int64.to_int (Int64.rem v (Int64.of_int channels)))

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

(* -- ChaCha20, Poly1305 and cipher known answers.

   Every pin below is printed by test/fixtures/crypto/cipher_kat.py from
   python3's [cryptography] package, so none depends on this library.
   The RFC 8439 §2.3.2 and §2.5.2 inputs are the RFC's; their outputs are
   computed there too, not copied from the RFC. *)

let hex = Sha256.hex_of
let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let chacha_block key ~nonce ~counter =
  let w = Array.make 16 0 in
  Chacha20.block key ~nonce ~off:0 ~counter w;
  let out = Bytes.create 64 in
  Chacha20.xor_into w ~word:0 (String.make 64 '\000') ~spos:0 out ~dpos:0 ~len:64;
  Bytes.to_string out

let key_00_1f = String.init 32 Char.chr

let chacha20_vectors () =
  let k = Chacha20.key key_00_1f in
  (* RFC 8439's 96-bit nonce 000000090000004a00000000 with block count 1:
     its first word is this layout's counter high word. *)
  check Alcotest.string "rfc8439 2.3.2"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
     d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (hex
       (chacha_block k ~nonce:(unhex "0000004a00000000") ~counter:(1 + (0x09000000 lsl 32))));
  let nonce = unhex "8102030405060708" in
  List.iter
    (fun (counter, expect) ->
      check Alcotest.string (Printf.sprintf "counter %#x" counter) expect
        (hex (chacha_block k ~nonce ~counter)))
    [ ( 0,
        "010f20b74a0ce44b33fdbcbd003f453c83f0d5810fd8ededc4174ea967035e68\
         95a9c8af34c3fa704b2ce0e91c0f51a63ed9132b6f108c268ae4805d8067b026" );
      ( 1,
        "f338c1b05d6f5b0876a524f6533336ff02322f91c96704b4b783412e33d19cbf\
         0ff6fdf7e82a40ed9d0b470d1c194605d8e7b9d8e598396154f201c60250bc9e" );
      ( 0xFFFF_FFFF,
        "c2a0de81e0d6243117e2ca661794ab4c7a24f04e161f92c84b839b9cc7f2b5c5\
         0c28a427e4f429ac8c9810269778f5be87f3a135382fcdd1bcc1f53e45bd3e66" );
      ( 0x0123_4567_89AB_CDEF,
        "8cd6d0894b8d329d8792e5e0125ed79bdbb403bf6009911774adaebe8fe8f0f5\
         9ec2e84c563e32744abaec20ee79cbb8ba9eb50b7a70bd02f9409000232a35cd" ) ];
  let run = String.concat "" (List.init 64 (fun counter -> chacha_block k ~nonce ~counter)) in
  check Alcotest.string "4096 bytes from block 0 (their SHA-256)"
    "e8955b711dc629c06ba5753f429a47b7aa50adf3945c75d96d3254e72220a551" (Sha256.digest_hex run)

(* [xor_into] at every word offset and length it allows, against the
   block's bytes XORed one at a time. *)
let chacha20_xor_into =
  QCheck.Test.make ~name:"xor_into = bytewise xor of the block" ~count:300
    QCheck.(triple (int_range 0 15) (int_range 0 64) (string_of_size (Gen.return 64)))
    (fun (word, len, src) ->
      let len = min len (64 - (4 * word)) in
      let block = chacha_block (Chacha20.key key_00_1f) ~nonce:"01234567" ~counter:5 in
      let w = Array.make 16 0 in
      Chacha20.block (Chacha20.key key_00_1f) ~nonce:"01234567" ~off:0 ~counter:5 w;
      let out = Bytes.make (len + 2) 'Z' in
      Chacha20.xor_into w ~word src ~spos:(64 - len) out ~dpos:1 ~len;
      Bytes.sub_string out 1 len
      = String.init len (fun i ->
            Char.chr (Char.code src.[64 - len + i] lxor Char.code block.[(4 * word) + i]))
      && Bytes.get out 0 = 'Z'
      && Bytes.get out (len + 1) = 'Z')

let poly1305_vectors () =
  let key = unhex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  check Alcotest.string "rfc8439 2.5.2" "a8061dc1305136c6c22b8baf0c0127a9"
    (hex (Poly1305_ref.mac ~key "Cryptographic Forum Research Group"));
  check Alcotest.string "lengths 0..48 (SHA-256 of the tags)"
    "c615aee9eef4aa1dd88ebb653313547ca7c62abcc78b5e6546a5b05cea11877b"
    (Sha256.digest_hex
       (String.concat "" (List.init 49 (fun n -> Poly1305_ref.mac ~key (counting n)))));
  check Alcotest.string "all-ones key, 64 x ff" "900fe32bc15fa8d7bca8efe4c7e37eb1"
    (hex (Poly1305_ref.mac ~key:(String.make 32 '\xff') (String.make 64 '\xff')))

(* The shipped two-lane kernel against the oracle: random [r ‖ s] key
   pairs (or all-ones ones, the largest limbs), whole-block messages of
   0-12 blocks (random or all ones), read at an odd offset and absorbed in
   two calls split at any block, on a state reset after earlier work. *)
let poly1305_fused_matches_oracle =
  let key = QCheck.Gen.(oneof [ string_size (return 32); return (String.make 32 '\xff') ]) in
  let msg =
    QCheck.Gen.(
      int_range 0 12 >>= fun blocks ->
      oneof [ string_size (return (16 * blocks)); return (String.make (16 * blocks) '\xff') ])
  in
  QCheck.Test.make ~name:"fused absorb = two oracle lanes" ~count:300
    (QCheck.make QCheck.Gen.(quad key key msg (int_range 0 12)))
    (fun (ka, kb, msg, split) ->
      let blocks = String.length msg / 16 in
      let split = min split blocks in
      let src = "xyz" ^ msg in
      let ra = Poly1305.r ka ~off:0 and rb = Poly1305.r kb ~off:0 in
      let h = Poly1305.state () in
      Poly1305.absorb ra rb h (String.make 16 '\xff') ~off:0 ~blocks:1;
      Poly1305.reset h;
      Poly1305.absorb ra rb h src ~off:3 ~blocks:split;
      Poly1305.absorb ra rb h src ~off:(3 + (16 * split)) ~blocks:(blocks - split);
      let pad =
        Array.init 8 (fun i ->
            let k = if i < 4 then ka else kb in
            Int32.to_int (String.get_int32_le k (16 + (4 * (i land 3)))) land 0xFFFF_FFFF)
      in
      let out = Bytes.create 32 in
      Poly1305.finish h ~lane:0 ~pad ~word:0 out ~pos:0;
      Poly1305.finish h ~lane:1 ~pad ~word:4 out ~pos:16;
      Bytes.to_string out = Poly1305_ref.mac ~key:ka msg ^ Poly1305_ref.mac ~key:kb msg)

(* Whole seals under "cipher-kat-key" and nonce 0x8102030405060708 (top
   bit set, so the big-endian encoding of a negative [int64] is pinned
   too), plaintext 00 01 02 ...: block 0 only (0-32 bytes), block 1 (33),
   and 17 blocks (1,040), with every tail length of a Poly1305 block.
   Each also through the in-place path, both ways. *)
let seal_vectors =
  [ (0, "", "e0a8cc73e071af807950197f55d2a6f24263b75a248d9d6d692c34d4b41c2bac");
    (1, "d4", "a3b80808741de452bc915d986a075b871edf6adef3d70e1b337b420ff100af8f");
    ( 15,
      "d4e77aff597953b8be757909151fd9",
      "93e49f1adc5eaad3588a62ee700f43a3b886f719a09dd4aa80f52ea239bc8b04" );
    ( 16,
      "d4e77aff597953b8be757909151fd95b",
      "2486b2a9122c538cb381438956f0c4081535696ec4c1b5ad185615b47777bb6c" );
    ( 17,
      "d4e77aff597953b8be757909151fd95b06",
      "90ad6bdf681f8d0677e85fbac803e8e27ff407e8e6d4a5ccf79361883381b46c" );
    ( 32,
      "d4e77aff597953b8be757909151fd95b06d00fbbd77d40577e2c581d93e64c25",
      "c07564ecbbf999e035192884ae392c236f782ad330233c68135d8fc2fdc5bfac" );
    ( 33,
      "d4e77aff597953b8be757909151fd95b06d00fbbd77d40577e2c581d93e64c25d1",
      "3a14610620433a5b291e4541c81b0fbbea8b6c86b874f667c0ac24c33462e728" );
    ( 1040,
      "sha256 4bc04a4978d4ef3b525d37c186e42eea3b19e1e0582d3a9ca0c41d2f699f36f8",
      "e97b7f7357427a5d7ebf39b5f4e7eea686da4777b6a766081b3db8cb66d3c745" ) ]

let cipher_seal_vector () =
  let nonce = 0x8102030405060708L in
  let ck = Cipher.key "cipher-kat-key" and s = Cipher.scratch () in
  List.iter
    (fun (len, body, tag) ->
      let plain = counting len in
      let sealed = Cipher.seal ~key:"cipher-kat-key" ~nonce plain in
      let what fmt = Printf.sprintf ("length %d: " ^^ fmt) len in
      check Alcotest.string (what "nonce") "8102030405060708" (hex sealed.Cipher.nonce);
      check Alcotest.string (what "body") body
        (if len <= 33 then hex sealed.Cipher.body
         else "sha256 " ^ Sha256.digest_hex sealed.Cipher.body);
      check Alcotest.string (what "tag") tag (hex sealed.Cipher.tag);
      let out = Bytes.create (Cipher.frame_size len) in
      Cipher.seal_into ck s ~nonce (Bytes.of_string plain) ~len out ~pos:0;
      let frame = Bytes.to_string out in
      check Alcotest.string (what "seal_into frame") (Cipher.encode sealed) frame;
      check Alcotest.int (what "open_into length") len (Cipher.open_into ck s frame ~pos:0);
      check Alcotest.string (what "open_into plaintext") plain
        (Bytes.sub_string (Cipher.plain s) 0 len))
    seal_vectors

(* The tag-only call: 12 clear bytes (an ack's channel, seq and epoch
   words) under nonce 3 << 32 | 9, written into and checked in place. *)
let cipher_mac_vector () =
  let ck = Cipher.key "cipher-kat-key" and s = Cipher.scratch () in
  let nonce = Int64.logor (Int64.shift_left 3L 32) 9L in
  let frame = Bytes.make 45 'A' in
  Bytes.blit_string (unhex "000000030000000900000002") 0 frame 1 12;
  Cipher.mac_into ck s ~nonce frame ~off:1 ~len:12 frame ~pos:13;
  let blob = Bytes.to_string frame in
  check Alcotest.string "tag"
    "f48297248b30fb2196f7fd8ebed5be6f48eadf0aceee01f4693025b836972677"
    (hex (String.sub blob 13 32));
  check Alcotest.bool "mac_ok accepts" true
    (Cipher.mac_ok ck s ~nonce blob ~off:1 ~len:12 ~tag:13);
  check Alcotest.bool "mac_ok rejects another nonce" false
    (Cipher.mac_ok ck s ~nonce:(Int64.succ nonce) blob ~off:1 ~len:12 ~tag:13);
  check Alcotest.bool "mac_ok rejects a short tag" false
    (Cipher.mac_ok ck s ~nonce (String.sub blob 0 44) ~off:1 ~len:12 ~tag:13);
  check Alcotest.bool "mac_ok rejects a blob cut inside the slice" false
    (Cipher.mac_ok ck s ~nonce (String.sub blob 0 9) ~off:1 ~len:12 ~tag:13)

(* The construction spelled out from the parts — ChaCha20 block 0 for the
   pads, the oracle's one-shot [Poly1305_ref.mac] per lane over RFC 8439's
   AEAD input with the nonce as AAD — for a nonce of any length
   (zero-padded to 8 bytes for the block).  Only 8-byte nonces are ever sealed. *)
let reference_tag ~key nonce body =
  let enc = Chacha20.key (Sha256.digest ("cipher-enc|" ^ key)) in
  let mac = Sha256.digest ("cipher-mac|" ^ key) in
  let n8 = String.init 8 (fun i -> if i < String.length nonce then nonce.[i] else '\000') in
  let pads = chacha_block enc ~nonce:n8 ~counter:0 in
  let pad16 b = String.make ((16 - (String.length b mod 16)) mod 16) '\000' in
  let lengths = Bytes.create 16 in
  Bytes.set_int64_le lengths 0 (Int64.of_int (String.length nonce));
  Bytes.set_int64_le lengths 8 (Int64.of_int (String.length body));
  let data = nonce ^ pad16 nonce ^ body ^ pad16 body ^ Bytes.to_string lengths in
  let lane i =
    Poly1305_ref.mac ~key:(String.sub mac (16 * i) 16 ^ String.sub pads (16 * i) 16) data
  in
  lane 0 ^ lane 1

let cipher_matches_reference =
  QCheck.Test.make ~name:"seal = ChaCha20 stream and two Poly1305 lanes" ~count:200
    QCheck.(
      triple
        (string_of_size (Gen.int_range 0 40))
        int64
        (string_of_size (Gen.int_range 0 1100)))
    (fun (key, nonce, plain) ->
      let sealed = Cipher.seal ~key ~nonce plain in
      let enc = Chacha20.key (Sha256.digest ("cipher-enc|" ^ key)) in
      let blocks = (String.length plain + 32 + 63) / 64 in
      let stream =
        String.concat ""
          (List.init blocks (fun counter ->
               chacha_block enc ~nonce:sealed.Cipher.nonce ~counter))
      in
      let body =
        String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code stream.[32 + i])) plain
      in
      sealed.Cipher.body = body
      && sealed.Cipher.tag = reference_tag ~key sealed.Cipher.nonce body)

(* The hop PRF is HMAC-SHA256: [Keyed.bytes] is HMAC(key, label || 0x00 || counter_be64),
   [below] its first 8 bytes big-endian, shifted right by one, mod the
   bound; a channel hop is [below] under the label "channel-hop".
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
        (Prf.Keyed.below keyed ~label:"channel-hop" ~counter:round channels))
    [ (0, 16, 1); (1, 16, 7); (2, 1024, 974); (1_000_000, 1024, 797) ]

(* -- steady-state allocation of the MAC, seal and open paths.

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

(* The in-place path writes only the caller's frame buffer and the
   scratch: nothing is allocated, at 32 B as at 1 KiB.  The same holds for
   the tag-only path the slotted acks take, tag written and checked in
   place. *)
let cipher_in_place_alloc () =
  let ck = Cipher.key "alloc-key" and s = Cipher.scratch () in
  let words len =
    let plain = Bytes.of_string (counting len) in
    let out = Bytes.create (Cipher.frame_size len) in
    let seal =
      minor_words_per_call (fun () -> Cipher.seal_into ck s ~nonce:1L plain ~len out ~pos:0)
    in
    let blob = Bytes.to_string out in
    let open_ = minor_words_per_call (fun () -> ignore (Cipher.open_into ck s blob ~pos:0)) in
    let frame = Bytes.of_string (counting (len + 32)) in
    let mac =
      minor_words_per_call (fun () ->
          Cipher.mac_into ck s ~nonce:1L frame ~off:0 ~len frame ~pos:len)
    in
    let tagged = Bytes.to_string frame in
    let ok () = ignore (Cipher.mac_ok ck s ~nonce:1L tagged ~off:0 ~len ~tag:len) in
    [ ("seal_into", seal); ("open_into", open_); ("mac_into", mac);
      ("mac_ok", minor_words_per_call ok) ]
  in
  List.iter2
    (fun (what, short) (_, long) ->
      if short > 0.01 || long > 0.01 then
        Alcotest.failf "%s allocates %.2f words at 32 B, %.2f at 1040 B" what short long)
    (words 32) (words 1040)

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

(* A frame re-encoded with a 0-, 7-, 9- or 16-byte nonce, under the tag
   the construction generalised to that nonce length gives it
   ([reference_tag]), so a MAC without the length check would accept it: every open path
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
      let retag nonce = reference_tag ~key nonce sealed.body in
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
          Alcotest.test_case "safe prime deterministic" `Quick safe_prime_deterministic ] );
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
          qcheck prf_keyed_equals_oneshot;
          Alcotest.test_case "hop vectors" `Quick prf_hop_vectors ] );
      ( "chacha20",
        [ Alcotest.test_case "known answers" `Quick chacha20_vectors;
          qcheck chacha20_xor_into ] );
      ( "poly1305",
        [ Alcotest.test_case "known answers" `Quick poly1305_vectors;
          qcheck poly1305_fused_matches_oracle ] );
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
          qcheck cipher_rejects_odd_nonce;
          Alcotest.test_case "tag-only vector" `Quick cipher_mac_vector;
          qcheck cipher_matches_reference ] );
      ( "alloc",
        [ Alcotest.test_case "mac_feed_into allocation-free" `Quick
            hmac_mac_feed_into_no_alloc;
          Alcotest.test_case "in-place seal and open" `Quick cipher_in_place_alloc ] ) ]
