(* xoshiro256** with its state unboxed.

   The record holds each 64-bit state word as two 32-bit halves in
   immediate [int] fields, so storing the state allocates nothing.  The two
   step loops, [run] (one draw) and [tally_below] (a series of draws, each
   booked as it is taken), load the four words once per call into local
   [Int64] refs, which ocamlopt keeps unboxed, step on them with plain
   Int64 arithmetic, and store them back once.  The output stream is
   bit-identical to the reference Int64 formulation (tested against it in
   test_prng.ml).  Requires a 64-bit platform, like the native-int
   SHA-256. *)

type t = {
  mutable s0h : int; mutable s0l : int;
  mutable s1h : int; mutable s1l : int;
  mutable s2h : int; mutable s2l : int;
  mutable s3h : int; mutable s3l : int;
}

let[@inline] word hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
let[@inline] hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let[@inline] lo64 x = Int64.to_int x land 0xFFFFFFFF

let[@inline] set_state t s0 s1 s2 s3 =
  t.s0h <- hi64 s0;
  t.s0l <- lo64 s0;
  t.s1h <- hi64 s1;
  t.s1l <- lo64 s1;
  t.s2h <- hi64 s2;
  t.s2l <- lo64 s2;
  t.s3h <- hi64 s3;
  t.s3l <- lo64 s3

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* An all-zero state is a fixed point; SplitMix64 cannot produce four
     consecutive zeros, so this is safe, but assert it anyway. *)
  assert (not Int64.(equal s0 0L && equal s1 0L && equal s2 0L && equal s3 0L));
  let t = { s0h = 0; s0l = 0; s1h = 0; s1l = 0; s2h = 0; s2l = 0; s3h = 0; s3l = 0 } in
  set_state t s0 s1 s2 s3;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The output a step taken from state word s1 produces. *)
let[@inline] scramble s1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

(* The bounded draw takes v = out >>> 1, a 63-bit value, and accepts it iff
   v < limit = R - (R mod bound), R = 2^63 - 1; the accepted v mod bound is
   then exactly uniform.  A power of two divides 2^63, so R mod bound is
   bound - 1 without a division, and v mod bound is a mask. *)
let[@inline] pow2 bound = bound land (bound - 1) = 0

let[@inline] limit bound =
  let r =
    if pow2 bound then Int64.of_int (bound - 1)
    else Int64.rem Int64.max_int (Int64.of_int bound)
  in
  Int64.sub Int64.max_int r

let[@inline] accepted (v : int64) limit = v < limit

(* An accepted v's draw: v masked with bound - 1 when [masked] (a
   power-of-two bound), else v mod bound. *)
let[@inline] reduce ~masked v bound =
  if masked then Int64.to_int v land (bound - 1)
  else Int64.to_int (Int64.rem v (Int64.of_int bound))

let accepts ~bound v = accepted v (limit bound)

(* The one-draw step loop.  With [bound > 0] it steps until a draw is
   accepted and returns it; with [bound = 0] it takes one step and returns
   0.  Rejection stays inside the loop: it is one more step before the
   acceptance (probability below bound / 2^63). *)
let run t bound =
  let s0 = ref (word t.s0h t.s0l) and s1 = ref (word t.s1h t.s1l) in
  let s2 = ref (word t.s2h t.s2l) and s3 = ref (word t.s3h t.s3l) in
  let limit = if bound > 0 then limit bound else Int64.max_int in
  let masked = pow2 bound in
  let last = ref (-1) in
  while !last < 0 do
    let x = !s1 in
    let out = scramble x in
    let tmp = Int64.shift_left x 17 in
    let y2 = Int64.logxor !s2 !s0 in
    let y3 = Int64.logxor !s3 x in
    s1 := Int64.logxor x y2;
    s0 := Int64.logxor !s0 y3;
    s2 := Int64.logxor y2 tmp;
    s3 := rotl y3 45;
    if bound = 0 then last := 0
    else begin
      let v = Int64.shift_right_logical out 1 in
      if accepted v limit then last := reduce ~masked v bound
    end
  done;
  set_state t !s0 !s1 !s2 !s3;
  !last

let[@inline] check_bound bound =
  if bound <= 0 then invalid_arg "Xoshiro: bound must be positive"

let below t bound =
  check_bound bound;
  run t bound

(* The tallying loop: the step of [run] again, so that the state, the
   ring base and the store position stay in registers across the whole
   series.  Each accepted draw [h] adds one to [counts.(base + h)], [base]
   stepping one ring row of [stride] per draw and wrapping to row 0 at
   [ring_end], and is written little-endian to the [cell]-byte cell at
   byte [pos].  [tally_below]'s checks put every index in bounds; the
   wide cells, off f-AME's path, keep their bounds checks all the same.

   It is inlined at [tally_below]'s two call sites.  With [masked] and
   [cell] constant (a power-of-two bound in 1-byte cells: f-AME's hops
   over C = 2) the branches on them fold away, and the four state words
   stay in registers beside the cursors; every other shape reads both at
   run time, and a non-power-of-two bound pays a division per draw that
   outweighs the spills. *)
let[@inline] tally_loop ~masked ~cell t bound ~counts ~stride ~row ~rows ~store ~at ~len =
  let s0 = ref (word t.s0h t.s0l) and s1 = ref (word t.s1h t.s1l) in
  let s2 = ref (word t.s2h t.s2l) and s3 = ref (word t.s3h t.s3l) in
  let limit = limit bound in
  let ring_end = rows * stride and stop = (at + len) * cell in
  let base = ref (row * stride) and pos = ref (at * cell) in
  while !pos < stop do
    let x = !s1 in
    let out = scramble x in
    let tmp = Int64.shift_left x 17 in
    let y2 = Int64.logxor !s2 !s0 in
    let y3 = Int64.logxor !s3 x in
    s1 := Int64.logxor x y2;
    s0 := Int64.logxor !s0 y3;
    s2 := Int64.logxor y2 tmp;
    s3 := rotl y3 45;
    let v = Int64.shift_right_logical out 1 in
    if accepted v limit then begin
      let h = reduce ~masked v bound in
      let idx = !base + h and p = !pos in
      (* radio-lint: allow partial-array-unsafe — idx < base + stride <= ring_end <= length *)
      Array.unsafe_set counts idx (Array.unsafe_get counts idx + 1);
      (match cell with
       | 1 ->
         (* radio-lint: allow partial-array-unsafe — p < stop <= length store *)
         Bytes.unsafe_set store p (Char.unsafe_chr h)
       | 2 -> Bytes.set_uint16_le store p h
       | _ -> Bytes.set_int32_le store p (Int32.of_int h));
      pos := p + cell;
      let b = !base + stride in
      base := if b = ring_end then 0 else b
    end
  done;
  set_state t !s0 !s1 !s2 !s3

let tally_below t bound ~counts ~stride ~row ~rows ~store ~cell ~at ~len =
  check_bound bound;
  if not (cell = 1 || cell = 2 || cell = 4) || bound > 1 lsl (8 * cell) then
    invalid_arg "Xoshiro.tally_below: bound does not fit the cell";
  if stride < bound || row < 0 || row >= rows || rows > Array.length counts / stride then
    invalid_arg "Xoshiro.tally_below: bad ring";
  if len < 0 || at < 0 || at > (Bytes.length store / cell) - len then
    invalid_arg "Xoshiro.tally_below: bad len";
  if cell = 1 && pow2 bound then
    tally_loop ~masked:true ~cell:1 t bound ~counts ~stride ~row ~rows ~store ~at ~len
  else tally_loop ~masked:(pow2 bound) ~cell t bound ~counts ~stride ~row ~rows ~store ~at ~len

(* [next] and [bool] read the output the coming step produces, which
   depends on s1 alone, then take that step. *)
let[@inline] coming t = scramble (word t.s1h t.s1l)

let advance t = ignore (run t 0)

let next t =
  let out = coming t in
  advance t;
  out

let bool t =
  let out = coming t in
  advance t;
  Int64.to_int out land 1 = 1
