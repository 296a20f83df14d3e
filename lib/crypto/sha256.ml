(* SHA-256 per FIPS 180-4.

   Word arithmetic is done on the native [int] masked to 32 bits, rather
   than on boxed [Int32]: the compression loop is the hot path of every MAC
   and PRF call in the simulator, and native ints keep it allocation-free.
   This needs 63-bit ints (a 64-bit host).

   Rotations use the doubled word: for a clean 32-bit [x], the low 32 bits
   of [d lsr n], with [d = x lor (x lsl 32)], are [rotr x n] for every
   1 <= n <= 31.  So a sigma is one doubling, three shifts and two xors,
   and its result carries dirty bits above bit 31.  Those are dropped once,
   by the mask on assigning a state or schedule word; int addition wraps
   modulo 2^63, so the low 32 bits of a sum never depend on them.  Sigma
   inputs must therefore be clean words, and every word stored in [h], [w]
   or a round register is.  The message length is a byte count in a native
   int. *)

let digest_size = 32
let block_size = 64
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_h () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array;
  buf : Bytes.t; (* one block *)
  mutable buf_len : int;
  mutable total_bytes : int;
  w : int array; (* message schedule scratch *)
}

let init () =
  { h = initial_h (); buf = Bytes.create block_size; buf_len = 0; total_bytes = 0;
    w = Array.make 64 0 }

let copy ctx =
  (* [w] is per-block scratch, fully rewritten before every read inside one
     [compress] call, so sharing it between a context and its copies is
     safe within a domain — and keeps midstate replay (the per-MAC path of
     {!Hmac}) allocation-light.  Contexts must not be shared across
     domains. *)
  { h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; buf_len = ctx.buf_len;
    total_bytes = ctx.total_bytes; w = ctx.w }

let copy_into src ~into =
  (* Overwrite [into] with a snapshot of [src] without allocating: the
     batch MAC path replays one midstate thousands of times per epoch and
     reuses a single scratch context for all of them.  [into] keeps its own
     [w] (per-block scratch, rewritten before every read). *)
  Array.blit src.h 0 into.h 0 8;
  if src.buf_len > 0 then Bytes.blit src.buf 0 into.buf 0 src.buf_len;
  into.buf_len <- src.buf_len;
  into.total_bytes <- src.total_bytes

let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 7) lxor (d lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 17) lxor (d lsr 19) lxor (x lsr 10)

(* Equivalent minimal-operation forms of the FIPS boolean functions:
   ch = (e & f) ^ (~e & g), maj = (a & b) ^ (a & c) ^ (b & c). *)
let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = a land b lor (c land (a lor b))

let compress ctx block pos =
  (* The innermost loops of every hash/MAC/PRF call: indices are bounded by
     construction (w and k have 64 entries, h has 8), so unchecked accesses
     are safe and measurably faster. *)
  Counters.sha256_compression ();
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (pos + (i * 4))) land mask32)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((small_sigma1 (Array.unsafe_get w (i - 2))
        + Array.unsafe_get w (i - 7)
        + small_sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 16))
      land mask32)
  done;
  let h = ctx.h in
  (* The eight working words are local refs that no closure captures, so
     ocamlopt keeps them in registers and the loop allocates nothing.  A
     local recursive function would capture [w] and [h] and allocate its
     closure on every call, for no measured speed gain. *)
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let t1 = !hh + big_sigma1 !e + ch !e !f !g + Array.unsafe_get k i + Array.unsafe_get w i in
    let t2 = big_sigma0 !a + maj !a !b !c in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let update_bytes ctx src ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length src);
  ctx.total_bytes <- ctx.total_bytes + len;
  let remaining = ref len and offset = ref pos in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit src !offset ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    offset := !offset + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx src !offset;
    offset := !offset + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit src !offset ctx.buf ctx.buf_len !remaining;
    ctx.buf_len <- ctx.buf_len + !remaining
  end

let feed_string ctx s ~off ~len =
  update_bytes ctx (Bytes.unsafe_of_string s) ~pos:off ~len

let update ctx s = feed_string ctx s ~off:0 ~len:(String.length s)

let finalize_into ctx out ~pos =
  (* Padding, written in place after the buffered bytes: 0x80, zeros, and
     the 8-byte big-endian bit length at the end of the last block.  When
     fewer than 9 bytes are free, the zeros spill into a second block. *)
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= block_size - 8 then begin
    Bytes.fill buf (n + 1) (block_size - n - 1) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 (block_size - 8) '\000'
  end
  else Bytes.fill buf (n + 1) (block_size - 9 - n) '\000';
  Bytes.set_int64_be buf (block_size - 8) (Int64.of_int (ctx.total_bytes lsl 3));
  compress ctx buf 0;
  ctx.buf_len <- 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (pos + (i * 4)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_of raw =
  let b = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents b

let digest_hex s = hex_of (digest s)
