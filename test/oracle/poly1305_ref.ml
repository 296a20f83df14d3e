(* Poly1305 on 26-bit limbs, after poly1305-donna's 32-bit code, one lane
   in tagged ints.

   [h] and [r] are five limbs of 26 bits (h4 may carry a few more between
   blocks).  With [s_i = 5 r_i] (2^130 = 5 mod p folds the high products
   back), each product is below 2^27 * 2^29 and each of the five-term
   sums below 2^59: no 63-bit int overflows. *)

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

let r s =
  (* Clamping (r &= 0x0ffffffc0ffffffc0ffffffc0fffffff) folded into the
     limb masks. *)
  let r0 = u32 s 0 land 0x3ff_ffff
  and r1 = (u32 s 3 lsr 2) land 0x3ff_ff03
  and r2 = (u32 s 6 lsr 4) land 0x3ff_c0ff
  and r3 = (u32 s 9 lsr 6) land 0x3f0_3fff
  and r4 = (u32 s 12 lsr 8) land 0x00f_ffff in
  { r0; r1; r2; r3; r4; s1 = r1 * 5; s2 = r2 * 5; s3 = r3 * 5; s4 = r4 * 5 }

(* [h <- (h + m) r mod p] for the block at [off], [hibit] its 2^128 bit
   already shifted to limb 4 (1 lsl 24, or 0 for a padded final block). *)
let absorb k h src off hibit =
  let h0 = h.(0) + (u32 src off land m26)
  and h1 = h.(1) + ((u32 src (off + 3) lsr 2) land m26)
  and h2 = h.(2) + ((u32 src (off + 6) lsr 4) land m26)
  and h3 = h.(3) + ((u32 src (off + 9) lsr 6) land m26)
  and h4 = h.(4) + ((u32 src (off + 12) lsr 8) lor hibit) in
  let d0 = (h0 * k.r0) + (h1 * k.s4) + (h2 * k.s3) + (h3 * k.s2) + (h4 * k.s1)
  and d1 = (h0 * k.r1) + (h1 * k.r0) + (h2 * k.s4) + (h3 * k.s3) + (h4 * k.s2)
  and d2 = (h0 * k.r2) + (h1 * k.r1) + (h2 * k.r0) + (h3 * k.s4) + (h4 * k.s3)
  and d3 = (h0 * k.r3) + (h1 * k.r2) + (h2 * k.r1) + (h3 * k.r0) + (h4 * k.s4)
  and d4 = (h0 * k.r4) + (h1 * k.r3) + (h2 * k.r2) + (h3 * k.r1) + (h4 * k.r0) in
  let d1 = d1 + (d0 lsr 26) in
  let d2 = d2 + (d1 lsr 26) in
  let d3 = d3 + (d2 lsr 26) in
  let d4 = d4 + (d3 lsr 26) in
  let h0 = (d0 land m26) + ((d4 lsr 26) * 5) in
  h.(0) <- h0 land m26;
  h.(1) <- (d1 land m26) + (h0 lsr 26);
  h.(2) <- d2 land m26;
  h.(3) <- d3 land m26;
  h.(4) <- d4 land m26

(* [a] where [keep] is all ones, [b] where it is 0. *)
let pick keep a b = (a land keep) lor (b land lnot keep)

(* The tag [(h mod p + s) mod 2^128], [s] the key's last 16 bytes. *)
let finish h key =
  (* Carry fully, then subtract p when h >= p, choosing by mask. *)
  let h0 = h.(0) and h1 = h.(1) in
  let h2 = h.(2) + (h1 lsr 26) and h1 = h1 land m26 in
  let h3 = h.(3) + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = h.(4) + (h3 lsr 26) and h3 = h3 land m26 in
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
  let f0 = w0 + u32 key 16 in
  let f1 = w1 + u32 key 20 + (f0 lsr 32) in
  let f2 = w2 + u32 key 24 + (f1 lsr 32) in
  let f3 = w3 + u32 key 28 + (f2 lsr 32) in
  let out = Bytes.create 16 in
  Bytes.set_int32_le out 0 (Int32.of_int f0);
  Bytes.set_int32_le out 4 (Int32.of_int f1);
  Bytes.set_int32_le out 8 (Int32.of_int f2);
  Bytes.set_int32_le out 12 (Int32.of_int f3);
  Bytes.to_string out

let mac ~key msg =
  if String.length key <> 32 then invalid_arg "Poly1305_ref.mac: need a 32-byte key";
  let k = r key and h = Array.make 5 0 in
  let n = String.length msg in
  for i = 0 to (n / 16) - 1 do
    absorb k h msg (16 * i) (1 lsl 24)
  done;
  let rest = n mod 16 in
  if rest > 0 then begin
    let last = Bytes.make 16 '\000' in
    Bytes.blit_string msg (n - rest) last 0 rest;
    Bytes.set last rest '\001';
    absorb k h (Bytes.unsafe_to_string last) 0 0
  end;
  finish h key
