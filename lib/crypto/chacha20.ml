(* ChaCha20's block function on native ints.

   As in [Sha256], words are 32-bit values in 63-bit ints, and the only
   operation that needs a clean word is the right shift of a rotation.
   So additions and the left half of a rotation leave dirty bits above
   bit 31, [rotl] masks its input, and the final feed-forward masks each
   output word: int arithmetic wraps modulo 2^63, so the low 32 bits of a
   sum, an xor or a left shift never depend on the dirty ones.  The
   sixteen state words are local refs no closure captures, which ocamlopt
   keeps in registers or on the stack: a block allocates nothing. *)

let mask = 0xFFFF_FFFF

type key = int array

let word s i = Int32.to_int (String.get_int32_le s i) land mask

let key s =
  if String.length s <> 32 then invalid_arg "Chacha20.key: need 32 bytes";
  Array.init 8 (fun i -> word s (4 * i))

let[@inline] rotl x n =
  let x = x land mask in
  (x lsl n) lor (x lsr (32 - n))

(* "expand 32-byte k" *)
let c0 = 0x61707865
let c1 = 0x3320646e
let c2 = 0x79622d32
let c3 = 0x6b206574

let block k ~nonce ~off ~counter out =
  Counters.chacha20_block ();
  let k0 = k.(0) and k1 = k.(1) and k2 = k.(2) and k3 = k.(3) in
  let k4 = k.(4) and k5 = k.(5) and k6 = k.(6) and k7 = k.(7) in
  let n12 = counter land mask and n13 = (counter lsr 32) land mask in
  let n14 = word nonce off and n15 = word nonce (off + 4) in
  let x0 = ref c0 and x1 = ref c1 and x2 = ref c2 and x3 = ref c3 in
  let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
  let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
  let x12 = ref n12 and x13 = ref n13 and x14 = ref n14 and x15 = ref n15 in
  for _ = 1 to 10 do
    (* Column round: quarter rounds on (0 4 8 12), (1 5 9 13),
       (2 6 10 14), (3 7 11 15). *)
    x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 16;
    x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 12;
    x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 8;
    x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 7;
    x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 16;
    x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 12;
    x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 8;
    x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 7;
    x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 16;
    x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 12;
    x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 8;
    x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 7;
    x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 16;
    x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 12;
    x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 8;
    x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 7;
    (* Diagonal round: (0 5 10 15), (1 6 11 12), (2 7 8 13),
       (3 4 9 14). *)
    x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 16;
    x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 12;
    x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 8;
    x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 7;
    x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 16;
    x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 12;
    x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 8;
    x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 7;
    x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 16;
    x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 12;
    x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 8;
    x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 7;
    x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 16;
    x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 12;
    x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 8;
    x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 7
  done;
  out.(0) <- (!x0 + c0) land mask;
  out.(1) <- (!x1 + c1) land mask;
  out.(2) <- (!x2 + c2) land mask;
  out.(3) <- (!x3 + c3) land mask;
  out.(4) <- (!x4 + k0) land mask;
  out.(5) <- (!x5 + k1) land mask;
  out.(6) <- (!x6 + k2) land mask;
  out.(7) <- (!x7 + k3) land mask;
  out.(8) <- (!x8 + k4) land mask;
  out.(9) <- (!x9 + k5) land mask;
  out.(10) <- (!x10 + k6) land mask;
  out.(11) <- (!x11 + k7) land mask;
  out.(12) <- (!x12 + n12) land mask;
  out.(13) <- (!x13 + n13) land mask;
  out.(14) <- (!x14 + n14) land mask;
  out.(15) <- (!x15 + n15) land mask

let xor_into w ~word src ~spos dst ~dpos ~len =
  assert (word >= 0 && len >= 0 && (4 * word) + len <= 64);
  let whole = len / 4 in
  for i = 0 to whole - 1 do
    let v = Int32.to_int (String.get_int32_le src (spos + (4 * i))) lxor w.(word + i) in
    Bytes.set_int32_le dst (dpos + (4 * i)) (Int32.of_int v)
  done;
  for j = 4 * whole to len - 1 do
    let b = (w.(word + (j / 4)) lsr (8 * (j land 3))) land 0xFF in
    Bytes.set dst (dpos + j) (Char.unsafe_chr (Char.code (String.get src (spos + j)) lxor b))
  done
