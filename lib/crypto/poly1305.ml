(* Two lanes of Poly1305 on 26-bit limbs, after poly1305-donna's 32-bit
   code, in unboxed Int64 arithmetic.

   [h] and [r] are five limbs of 26 bits (h4 may carry a few more between
   blocks).  With [s_i = 5 r_i] (2^130 = 5 mod p folds the high products
   back), each product is below 2^27 * 2^29 and each of the five-term
   sums below 2^59.  Each block's five message limbs are read once and
   added into both lanes' accumulators; the two lanes' ten limbs and
   their keys' eighteen are local Int64 values no closure captures, so
   ocamlopt keeps them unboxed and no multiply untags an operand. *)

let m26 = 0x3ff_ffff
let m32 = 0xFFFF_FFFF

type r = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int;
  s1 : int;
  s2 : int;
  s3 : int;
  s4 : int;
}

let u32 s i = Int32.to_int (String.get_int32_le s i) land m32

let r s ~off =
  (* Clamping (r &= 0x0ffffffc0ffffffc0ffffffc0fffffff) folded into the
     limb masks. *)
  let r0 = u32 s off land 0x3ff_ffff
  and r1 = (u32 s (off + 3) lsr 2) land 0x3ff_ff03
  and r2 = (u32 s (off + 6) lsr 4) land 0x3ff_c0ff
  and r3 = (u32 s (off + 9) lsr 6) land 0x3f0_3fff
  and r4 = (u32 s (off + 12) lsr 8) land 0x00f_ffff in
  { r0; r1; r2; r3; r4; s1 = r1 * 5; s2 = r2 * 5; s3 = r3 * 5; s4 = r4 * 5 }

(* Lane 1's limbs in 0..4, lane 2's in 5..9. *)
type state = int array

let state () = Array.make 10 0
let reset h = Array.fill h 0 10 0

(* The Int64 sum and product, spelled as operators so the limb products
   read as in the donna code. *)
external ( +: ) : int64 -> int64 -> int64 = "%int64_add"
external ( *: ) : int64 -> int64 -> int64 = "%int64_mul"

let absorb ka kb h src ~off ~blocks =
  let open Int64 in
  let m26 = 0x3ff_ffffL in
  let ar0 = of_int ka.r0 and ar1 = of_int ka.r1 and ar2 = of_int ka.r2 in
  let ar3 = of_int ka.r3 and ar4 = of_int ka.r4 in
  let as1 = of_int ka.s1 and as2 = of_int ka.s2 in
  let as3 = of_int ka.s3 and as4 = of_int ka.s4 in
  let br0 = of_int kb.r0 and br1 = of_int kb.r1 and br2 = of_int kb.r2 in
  let br3 = of_int kb.r3 and br4 = of_int kb.r4 in
  let bs1 = of_int kb.s1 and bs2 = of_int kb.s2 in
  let bs3 = of_int kb.s3 and bs4 = of_int kb.s4 in
  let a0 = ref (of_int h.(0)) and a1 = ref (of_int h.(1)) and a2 = ref (of_int h.(2)) in
  let a3 = ref (of_int h.(3)) and a4 = ref (of_int h.(4)) in
  let b0 = ref (of_int h.(5)) and b1 = ref (of_int h.(6)) and b2 = ref (of_int h.(7)) in
  let b3 = ref (of_int h.(8)) and b4 = ref (of_int h.(9)) in
  for i = 0 to blocks - 1 do
    let o = off + (16 * i) in
    let lo = String.get_int64_le src o and hi = String.get_int64_le src (o + 8) in
    (* The block's limbs, its 2^128 bit at bit 24 of limb 4. *)
    let m0 = logand lo m26 in
    let m1 = logand (shift_right_logical lo 26) m26 in
    let m2 = logand (logor (shift_right_logical lo 52) (shift_left hi 12)) m26 in
    let m3 = logand (shift_right_logical hi 14) m26 in
    let m4 = logor (shift_right_logical hi 40) 0x100_0000L in
    (* Lane 1: [a <- (a + m) r mod p], partially reduced. *)
    let h0 = !a0 +: m0 and h1 = !a1 +: m1 and h2 = !a2 +: m2 in
    let h3 = !a3 +: m3 and h4 = !a4 +: m4 in
    let d0 = (h0 *: ar0) +: (h1 *: as4) +: (h2 *: as3) +: (h3 *: as2) +: (h4 *: as1)
    and d1 = (h0 *: ar1) +: (h1 *: ar0) +: (h2 *: as4) +: (h3 *: as3) +: (h4 *: as2)
    and d2 = (h0 *: ar2) +: (h1 *: ar1) +: (h2 *: ar0) +: (h3 *: as4) +: (h4 *: as3)
    and d3 = (h0 *: ar3) +: (h1 *: ar2) +: (h2 *: ar1) +: (h3 *: ar0) +: (h4 *: as4)
    and d4 = (h0 *: ar4) +: (h1 *: ar3) +: (h2 *: ar2) +: (h3 *: ar1) +: (h4 *: ar0) in
    let d1 = d1 +: shift_right_logical d0 26 in
    let d2 = d2 +: shift_right_logical d1 26 in
    let d3 = d3 +: shift_right_logical d2 26 in
    let d4 = d4 +: shift_right_logical d3 26 in
    let c0 = logand d0 m26 +: (shift_right_logical d4 26 *: 5L) in
    a0 := logand c0 m26;
    a1 := logand d1 m26 +: shift_right_logical c0 26;
    a2 := logand d2 m26;
    a3 := logand d3 m26;
    a4 := logand d4 m26;
    (* Lane 2, the same under [kb]. *)
    let h0 = !b0 +: m0 and h1 = !b1 +: m1 and h2 = !b2 +: m2 in
    let h3 = !b3 +: m3 and h4 = !b4 +: m4 in
    let d0 = (h0 *: br0) +: (h1 *: bs4) +: (h2 *: bs3) +: (h3 *: bs2) +: (h4 *: bs1)
    and d1 = (h0 *: br1) +: (h1 *: br0) +: (h2 *: bs4) +: (h3 *: bs3) +: (h4 *: bs2)
    and d2 = (h0 *: br2) +: (h1 *: br1) +: (h2 *: br0) +: (h3 *: bs4) +: (h4 *: bs3)
    and d3 = (h0 *: br3) +: (h1 *: br2) +: (h2 *: br1) +: (h3 *: br0) +: (h4 *: bs4)
    and d4 = (h0 *: br4) +: (h1 *: br3) +: (h2 *: br2) +: (h3 *: br1) +: (h4 *: br0) in
    let d1 = d1 +: shift_right_logical d0 26 in
    let d2 = d2 +: shift_right_logical d1 26 in
    let d3 = d3 +: shift_right_logical d2 26 in
    let d4 = d4 +: shift_right_logical d3 26 in
    let c0 = logand d0 m26 +: (shift_right_logical d4 26 *: 5L) in
    b0 := logand c0 m26;
    b1 := logand d1 m26 +: shift_right_logical c0 26;
    b2 := logand d2 m26;
    b3 := logand d3 m26;
    b4 := logand d4 m26
  done;
  h.(0) <- to_int !a0;
  h.(1) <- to_int !a1;
  h.(2) <- to_int !a2;
  h.(3) <- to_int !a3;
  h.(4) <- to_int !a4;
  h.(5) <- to_int !b0;
  h.(6) <- to_int !b1;
  h.(7) <- to_int !b2;
  h.(8) <- to_int !b3;
  h.(9) <- to_int !b4

(* [a] where [keep] is all ones, [b] where it is 0. *)
let[@inline] pick keep a b = (a land keep) lor (b land lnot keep)

let finish h ~lane ~pad ~word out ~pos =
  (* Carry fully, then subtract p when h >= p, choosing by mask. *)
  let l = 5 * lane in
  let h0 = h.(l) and h1 = h.(l + 1) in
  let h2 = h.(l + 2) + (h1 lsr 26) and h1 = h1 land m26 in
  let h3 = h.(l + 3) + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = h.(l + 4) + (h3 lsr 26) and h3 = h3 land m26 in
  let h0 = h0 + ((h4 lsr 26) * 5) and h4 = h4 land m26 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land m26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land m26 in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land m26 in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land m26 in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land m26 in
  (* [keep] is all ones when g4 < 0, that is h < p: keep h. *)
  let keep = g4 asr 62 in
  let h0 = pick keep h0 g0 and h1 = pick keep h1 g1 and h2 = pick keep h2 g2 in
  let h3 = pick keep h3 g3 and h4 = pick keep h4 (g4 land m26) in
  let w0 = (h0 lor (h1 lsl 26)) land m32
  and w1 = ((h1 lsr 6) lor (h2 lsl 20)) land m32
  and w2 = ((h2 lsr 12) lor (h3 lsl 14)) land m32
  and w3 = ((h3 lsr 18) lor (h4 lsl 8)) land m32 in
  let f0 = w0 + pad.(word) in
  let f1 = w1 + pad.(word + 1) + (f0 lsr 32) in
  let f2 = w2 + pad.(word + 2) + (f1 lsr 32) in
  let f3 = w3 + pad.(word + 3) + (f2 lsr 32) in
  Bytes.set_int32_le out pos (Int32.of_int f0);
  Bytes.set_int32_le out (pos + 4) (Int32.of_int f1);
  Bytes.set_int32_le out (pos + 8) (Int32.of_int f2);
  Bytes.set_int32_le out (pos + 12) (Int32.of_int f3)
