(* ChaCha20's block function on unboxed Int64 words.

   Words are 32-bit values in the low half of an [int64], and the only
   operation that needs a clean word is the right shift of a rotation.  So
   additions and the left half of a rotation leave dirty bits above bit
   31, [rotl] takes its right half from the word shifted to the top (which
   drops them), and the final feed-forward masks each output word: Int64
   arithmetic wraps modulo 2^64, so the low 32 bits of a sum, an xor or a
   left shift never depend on the dirty ones.  The sixteen state words are
   local [Int64] refs no closure captures, which ocamlopt keeps unboxed in
   registers or on the stack, as in [Xoshiro.run]: a block allocates
   nothing, and no add, xor or shift pays a tag fix-up. *)

let mask = 0xFFFF_FFFF

type key = int array

let word s i = Int32.to_int (String.get_int32_le s i) land mask

let key s =
  if String.length s <> 32 then invalid_arg "Chacha20.key: need 32 bytes";
  Array.init 8 (fun i -> word s (4 * i))

let[@inline] rotl x n =
  let open Int64 in
  logor (shift_left x n) (shift_right_logical (shift_left x 32) (64 - n))

(* The feed-forward of a state word: the low 32 bits of [x + y], as an int. *)
let[@inline] feed x y = Int64.to_int (Int64.add x y) land mask

(* "expand 32-byte k" *)
let c0 = 0x61707865L
let c1 = 0x3320646eL
let c2 = 0x79622d32L
let c3 = 0x6b206574L

let block k ~nonce ~off ~counter out =
  Counters.chacha20_block ();
  let open Int64 in
  let k0 = of_int k.(0) and k1 = of_int k.(1) and k2 = of_int k.(2) and k3 = of_int k.(3) in
  let k4 = of_int k.(4) and k5 = of_int k.(5) and k6 = of_int k.(6) and k7 = of_int k.(7) in
  let n12 = of_int (counter land mask) and n13 = of_int ((counter lsr 32) land mask) in
  let n14 = of_int (word nonce off) and n15 = of_int (word nonce (off + 4)) in
  let x0 = ref c0 and x1 = ref c1 and x2 = ref c2 and x3 = ref c3 in
  let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
  let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
  let x12 = ref n12 and x13 = ref n13 and x14 = ref n14 and x15 = ref n15 in
  for _ = 1 to 10 do
    (* Column round: quarter rounds on (0 4 8 12), (1 5 9 13),
       (2 6 10 14), (3 7 11 15). *)
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 16;
    x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 12;
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 8;
    x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 7;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 16;
    x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 12;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 8;
    x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 7;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 16;
    x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 12;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 8;
    x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 7;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 16;
    x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 12;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 8;
    x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 7;
    (* Diagonal round: (0 5 10 15), (1 6 11 12), (2 7 8 13),
       (3 4 9 14). *)
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 16;
    x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 12;
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 8;
    x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 7;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 16;
    x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 12;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 8;
    x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 7;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 16;
    x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 12;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 8;
    x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 7;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 16;
    x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 12;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 8;
    x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 7
  done;
  out.(0) <- feed !x0 c0;
  out.(1) <- feed !x1 c1;
  out.(2) <- feed !x2 c2;
  out.(3) <- feed !x3 c3;
  out.(4) <- feed !x4 k0;
  out.(5) <- feed !x5 k1;
  out.(6) <- feed !x6 k2;
  out.(7) <- feed !x7 k3;
  out.(8) <- feed !x8 k4;
  out.(9) <- feed !x9 k5;
  out.(10) <- feed !x10 k6;
  out.(11) <- feed !x11 k7;
  out.(12) <- feed !x12 n12;
  out.(13) <- feed !x13 n13;
  out.(14) <- feed !x14 n14;
  out.(15) <- feed !x15 n15

(* Eight keystream bytes per step (words [j] and [j + 1], little-endian),
   then the tail a byte at a time. *)
let xor_into w ~word src ~spos dst ~dpos ~len =
  assert (word >= 0 && len >= 0 && (4 * word) + len <= 64);
  let pairs = len / 8 in
  for i = 0 to pairs - 1 do
    let j = word + (2 * i) in
    let ks = Int64.logor (Int64.of_int w.(j)) (Int64.shift_left (Int64.of_int w.(j + 1)) 32) in
    Bytes.set_int64_le dst
      (dpos + (8 * i))
      (Int64.logxor (String.get_int64_le src (spos + (8 * i))) ks)
  done;
  for j = 8 * pairs to len - 1 do
    let b = (w.(word + (j / 4)) lsr (8 * (j land 3))) land 0xFF in
    Bytes.set dst (dpos + j) (Char.unsafe_chr (Char.code (String.get src (spos + j)) lxor b))
  done
