(* xoshiro256** on unboxed native ints.

   Each 64-bit state word is held as two 32-bit halves in immediate [int]
   fields, so stepping the generator allocates nothing — the original
   [mutable int64] record boxed every store and cost ~20 minor words per
   draw, which dominated the f-AME hot path.  The output stream is
   bit-identical to the reference Int64 formulation (tested against it in
   test_prng.ml).  Requires a 64-bit platform, like the native-int SHA-256.

   Multiplications by the constants 5 and 9 are shift-and-add, and 64-bit
   rotates/shifts are composed from half-word shifts; every half is kept
   masked to 32 bits so the cross terms never overflow the 63-bit int. *)

type t = {
  mutable s0h : int; mutable s0l : int;
  mutable s1h : int; mutable s1l : int;
  mutable s2h : int; mutable s2l : int;
  mutable s3h : int; mutable s3l : int;
  (* Output halves of the latest [step]; valid until the next step. *)
  mutable outh : int; mutable outl : int;
}

let mask32 = 0xFFFFFFFF

let max_below = 0x3FFFFFFF

let hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let lo64 x = Int64.to_int (Int64.logand x 0xFFFFFFFFL)

let word hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* An all-zero state is a fixed point; SplitMix64 cannot produce four
     consecutive zeros, so this is safe, but assert it anyway. *)
  assert (not Int64.(equal s0 0L && equal s1 0L && equal s2 0L && equal s3 0L));
  { s0h = hi64 s0; s0l = lo64 s0;
    s1h = hi64 s1; s1l = lo64 s1;
    s2h = hi64 s2; s2l = lo64 s2;
    s3h = hi64 s3; s3l = lo64 s3;
    outh = 0; outl = 0 }

let copy t =
  { s0h = t.s0h; s0l = t.s0l;
    s1h = t.s1h; s1l = t.s1l;
    s2h = t.s2h; s2l = t.s2l;
    s3h = t.s3h; s3l = t.s3l;
    outh = t.outh; outl = t.outl }

let[@inline] step t =
  let s1h = t.s1h and s1l = t.s1l in
  (* x5 = s1 * 5 = s1 + (s1 << 2), carried across the halves. *)
  let l = (s1l lsl 2) land mask32 and h = ((s1h lsl 2) lor (s1l lsr 30)) land mask32 in
  let sum = l + s1l in
  let x5l = sum land mask32 and x5h = (h + s1h + (sum lsr 32)) land mask32 in
  (* r = rotl (x5, 7) *)
  let rh = ((x5h lsl 7) lor (x5l lsr 25)) land mask32
  and rl = ((x5l lsl 7) lor (x5h lsr 25)) land mask32 in
  (* out = r * 9 = r + (r << 3) *)
  let l = (rl lsl 3) land mask32 and h = ((rh lsl 3) lor (rl lsr 29)) land mask32 in
  let sum = l + rl in
  t.outl <- sum land mask32;
  t.outh <- (h + rh + (sum lsr 32)) land mask32;
  (* tmp = s1 << 17 *)
  let th = ((s1h lsl 17) lor (s1l lsr 15)) land mask32 and tl = (s1l lsl 17) land mask32 in
  let s2h = t.s2h lxor t.s0h and s2l = t.s2l lxor t.s0l in
  let s3h = t.s3h lxor s1h and s3l = t.s3l lxor s1l in
  t.s1h <- s1h lxor s2h;
  t.s1l <- s1l lxor s2l;
  t.s0h <- t.s0h lxor s3h;
  t.s0l <- t.s0l lxor s3l;
  t.s2h <- s2h lxor th;
  t.s2l <- s2l lxor tl;
  (* s3 = rotl (s3, 45) = rotl by 13 with the halves swapped. *)
  t.s3h <- ((s3l lsl 13) lor (s3h lsr 19)) land mask32;
  t.s3l <- ((s3h lsl 13) lor (s3l lsr 19)) land mask32

let out_hi t = t.outh
let out_lo t = t.outl

(* The bounded draw.  Its value v = next >>> 1 is 63 bits, so v >= 2^62
   does not fit a native int; the halves hi = outh (32 bits) and
   lo31 = outl >> 1 (31 bits), v = hi * 2^31 + lo31, and the signed reading
   x = (hi lsl 31) lor lo31, equal to v - 2^63 when v >= 2^62, stand in for
   it.  Exact rejection keeps the draw uniform: with R = 2^63 - 1 and
   r63 = R mod bound, v is accepted iff v < R - r63, whose high half is
   0xFFFFFFFF (r63 < 2^31): hi <> 0xFFFFFFFF || lo31 < 2^31 - 1 - r63.
   Then v mod bound is x mod bound, plus c63 = 2^63 mod bound when x < 0,
   brought back into [0, bound).  A power of two divides 2^63 (c63 = 0) and
   reduces to a mask, with r63 = bound - 1: no division at all.  Any other
   bound pays one division per call for r63 and one per draw. *)
let[@inline] r63 bound =
  if bound land (bound - 1) = 0 then bound - 1
  else
    (* R = 2 * max_int + 1 does not fit either; reduce through max_int. *)
    let twice = (2 * (max_int mod bound)) + 1 in
    if twice >= bound then twice - bound else twice

let[@inline] c63 bound r63 = if r63 = bound - 1 then 0 else r63 + 1

let[@inline] accepted limit_lo hi lo31 = hi <> mask32 || lo31 < limit_lo

let accepts ~bound ~hi ~lo31 = accepted (0x7FFFFFFF - r63 bound) hi lo31

(* Entered on a rejected output; steps until one is accepted.  Kept out of
   [draw] because a function with a loop is never inlined, and rejection
   is the cold path (probability below bound / 2^63). *)
let skip_rejected t limit_lo =
  while not (accepted limit_lo t.outh (t.outl lsr 1)) do
    step t
  done

let[@inline] draw t bound limit_lo c63 =
  step t;
  if not (accepted limit_lo t.outh (t.outl lsr 1)) then skip_rejected t limit_lo;
  if c63 = 0 then (t.outl lsr 1) land (bound - 1)
  else
    let x = (t.outh lsl 31) lor (t.outl lsr 1) in
    (* [x asr 62] is -1 exactly when x < 0, i.e. v >= 2^62. *)
    let r = (x mod bound) + (c63 land (x asr 62)) in
    r + (bound land (r asr 62))

let[@inline] check_bound bound =
  if bound <= 0 || bound > max_below then invalid_arg "Xoshiro: bound out of range"

let below t bound =
  check_bound bound;
  let r63 = r63 bound in
  draw t bound (0x7FFFFFFF - r63) (c63 bound r63)

let fill_below t bound arr ~len =
  check_bound bound;
  if len < 0 || len > Array.length arr then invalid_arg "Xoshiro.fill_below: bad len";
  let r63 = r63 bound in
  let limit_lo = 0x7FFFFFFF - r63 and c63 = c63 bound r63 in
  for i = 0 to len - 1 do
    (* radio-lint: allow partial-array-unsafe — i < len <= length arr, checked above *)
    Array.unsafe_set arr i (draw t bound limit_lo c63)
  done

let next t =
  step t;
  word t.outh t.outl

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

(* Cold path; runs over the boxed representation for clarity. *)
let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.(logand jump_word (shift_left 1L b)) <> 0L then begin
          s0 := Int64.logxor !s0 (word t.s0h t.s0l);
          s1 := Int64.logxor !s1 (word t.s1h t.s1l);
          s2 := Int64.logxor !s2 (word t.s2h t.s2l);
          s3 := Int64.logxor !s3 (word t.s3h t.s3l)
        end;
        step t
      done)
    jump_table;
  t.s0h <- hi64 !s0;
  t.s0l <- lo64 !s0;
  t.s1h <- hi64 !s1;
  t.s1l <- lo64 !s1;
  t.s2h <- hi64 !s2;
  t.s2l <- lo64 !s2;
  t.s3h <- hi64 !s3;
  t.s3l <- lo64 !s3
