(* Tests for the deterministic PRNG substrate: every protocol and experiment
   depends on these streams being reproducible, well-ranged, and reasonably
   uniform. *)

module Rng = Prng.Rng
module Splitmix64 = Prng.Splitmix64
module Xoshiro = Prng.Xoshiro

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* -- SplitMix64 -- *)

let splitmix_deterministic () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  let distinct = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Splitmix64.next a) (Splitmix64.next b)) then distinct := true
  done;
  check Alcotest.bool "streams differ" true !distinct

let splitmix_mix_pure () =
  check Alcotest.int64 "mix is a pure function" (Splitmix64.mix 123L) (Splitmix64.mix 123L)

(* -- Xoshiro -- *)

let xoshiro_deterministic () =
  let a = Xoshiro.create 99L and b = Xoshiro.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

(* The textbook Int64 formulation of xoshiro256**, seeded exactly like the
   production generator.  The unboxed step loop must stay bit-identical to
   this stream forever — every recorded experiment table depends on it. *)
module Xoshiro_reference = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let create seed =
    let sm = Splitmix64.create seed in
    let s0 = Splitmix64.next sm in
    let s1 = Splitmix64.next sm in
    let s2 = Splitmix64.next sm in
    let s3 = Splitmix64.next sm in
    { s0; s1; s2; s3 }

  let next t =
    let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
    let tmp = Int64.shift_left t.s1 17 in
    t.s2 <- Int64.logxor t.s2 t.s0;
    t.s3 <- Int64.logxor t.s3 t.s1;
    t.s1 <- Int64.logxor t.s1 t.s2;
    t.s0 <- Int64.logxor t.s0 t.s3;
    t.s2 <- Int64.logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result
end

let xoshiro_matches_reference () =
  List.iter
    (fun seed ->
      let fast = Xoshiro.create seed and slow = Xoshiro_reference.create seed in
      for i = 1 to 1000 do
        let expect = Xoshiro_reference.next slow in
        if not (Int64.equal (Xoshiro.next fast) expect) then
          Alcotest.failf "seed %Ld: draw %d diverges from the Int64 reference" seed i
      done)
    [ 0L; 1L; 42L; -1L; 0x123456789ABCDEFL ]

let xoshiro_reference_qcheck =
  QCheck.Test.make ~name:"half-word stream equals Int64 reference" ~count:200
    QCheck.(pair int (int_range 1 64))
    (fun (seed, draws) ->
      let seed = Int64.of_int seed in
      let fast = Xoshiro.create seed and slow = Xoshiro_reference.create seed in
      let ok = ref true in
      for _ = 1 to draws do
        if not (Int64.equal (Xoshiro.next fast) (Xoshiro_reference.next slow)) then
          ok := false
      done;
      !ok)

let xoshiro_bool_match_reference () =
  (* [bool] reads the low bit of the same output [next] returns, and
     advances the stream by exactly one step. *)
  List.iter
    (fun seed ->
      let b = Xoshiro.create seed in
      let r = Xoshiro_reference.create seed in
      for i = 1 to 1000 do
        let bit = Int64.logand (Xoshiro_reference.next r) 1L = 1L in
        if Xoshiro.bool b <> bit then Alcotest.failf "seed %Ld: bool %d diverges" seed i
      done;
      check Alcotest.int64 "next after the bools" (Xoshiro_reference.next r) (Xoshiro.next b))
    [ 0L; 1L; 314L; -1L ]

let xoshiro_distribution () =
  (* Coarse uniformity: bucket 64k draws into 16 buckets; each within 20%
     of the expectation.  A systematic bias would blow well past this. *)
  let g = Xoshiro.create 1234L in
  let buckets = Array.make 16 0 in
  let draws = 65536 in
  for _ = 1 to draws do
    let v = Int64.to_int (Int64.shift_right_logical (Xoshiro.next g) 60) in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expect = draws / 16 in
  Array.iteri
    (fun i count ->
      if abs (count - expect) > expect / 5 then
        Alcotest.failf "bucket %d has %d, expected about %d" i count expect)
    buckets

(* -- Rng facade -- *)

let rng_deterministic () =
  let a = Rng.create 3L and b = Rng.create 3L in
  for _ = 1 to 50 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_split_at_stable () =
  let parent = Rng.create 11L in
  let c1 = Rng.split_at parent 5 and c2 = Rng.split_at parent 5 in
  check Alcotest.int64 "same label, same child stream" (Rng.bits64 c1) (Rng.bits64 c2);
  let c3 = Rng.split_at parent 6 in
  check Alcotest.bool "different label differs" true
    (not (Int64.equal (Rng.bits64 (Rng.split_at parent 5)) (Rng.bits64 c3)))

let rng_split_does_not_disturb_split_at () =
  let p1 = Rng.create 21L and p2 = Rng.create 21L in
  ignore (Rng.bits64 p1);
  (* split_at keys off the base seed, so consuming p1 does not change it *)
  check Alcotest.int64 "split_at unaffected by draws"
    (Rng.bits64 (Rng.split_at p1 3))
    (Rng.bits64 (Rng.split_at p2 3))

(* The historical Int64 rejection sampler: 63 uniform bits, exact
   rejection of the top (2^63 - 1) mod bound values, then mod bound. *)
let reference_limit bound =
  Int64.sub Int64.max_int (Int64.rem Int64.max_int (Int64.of_int bound))

let reference_int g bound =
  let limit = reference_limit bound in
  let rec draw () =
    let v = Int64.shift_right_logical (Xoshiro_reference.next g) 1 in
    if v < limit then Int64.to_int (Int64.rem v (Int64.of_int bound)) else draw ()
  in
  draw ()

(* Every power of two below 2^30 (the mask path), odd and even
   non-powers (the division path), and bounds past 2^30, which the
   kernel's 63-bit acceptance test covers too. *)
let reference_bounds =
  List.init 30 (fun k -> 1 lsl k)
  @ [ 0x3FFFFFFF; 3; 6; 7; 1000; 65537; 0x40000000; 0x7FFFFFFFF ]

let rng_int_matches_reference () =
  List.iter
    (fun bound ->
      let g = Rng.create 2718L and r = Xoshiro_reference.create 2718L in
      for i = 1 to 500 do
        let expect = reference_int r bound in
        let got = Rng.int g bound in
        if got <> expect then
          Alcotest.failf "bound %d: draw %d gives %d, reference %d" bound i got expect
      done)
    reference_bounds

let rng_fill_int_matches_reference () =
  (* Fills of mixed lengths, a zero-length one included, into a buffer
     longer than each fill: the draws continue one stream, and the slots
     past [len] keep their sentinel. *)
  let buf = Array.make 100 (-1) in
  List.iter
    (fun bound ->
      let g = Rng.create 2718L and r = Xoshiro_reference.create 2718L in
      List.iter
        (fun len ->
          Array.fill buf 0 (Array.length buf) (-1);
          Rng.fill_int g bound buf ~len;
          for i = 0 to len - 1 do
            let expect = reference_int r bound in
            if buf.(i) <> expect then
              Alcotest.failf "bound %d, fill of %d: slot %d gives %d, reference %d" bound len i
                buf.(i) expect
          done;
          if len < Array.length buf && buf.(len) <> -1 then
            Alcotest.failf "bound %d: fill of %d wrote past len" bound len)
        [ 1; 86; 0; 7; 99; 3; 100 ])
    reference_bounds

let rng_fill_int_shares_state () =
  (* After a fill, the generator is where [len] single draws leave it. *)
  List.iter
    (fun bound ->
      let a = Rng.create 99L and b = Rng.create 99L and r = Xoshiro_reference.create 99L in
      let buf = Array.make 86 0 in
      Rng.fill_int a bound buf ~len:86;
      for _ = 1 to 86 do
        ignore (Rng.int b bound);
        ignore (reference_int r bound)
      done;
      let next = Xoshiro_reference.next r in
      check Alcotest.int64 "bits64 after the fill" next (Rng.bits64 a);
      check Alcotest.int64 "bits64 after the ints" next (Rng.bits64 b))
    [ 2; 6; 0x3FFFFFFF; 0x40000000 ]

let rng_fill_int_rejects_bad_len () =
  let g = Rng.create 1L and buf = Array.make 4 0 in
  List.iter
    (fun (bound, len) ->
      match Rng.fill_int g bound buf ~len with
      | () -> Alcotest.failf "bound %d, len %d accepted" bound len
      | exception Invalid_argument _ -> ())
    [ (6, 5); (6, -1); (0x40000000, 5); (0x40000000, -1) ]

let xoshiro_accept_boundary () =
  (* The rejection branch: the 63-bit value v is accepted iff v < limit.
     Random draws reach it with probability about bound / 2^63, so it is
     checked at the threshold itself, against the Int64 comparison. *)
  List.iter
    (fun bound ->
      let limit = reference_limit bound in
      List.iter
        (fun (v, expect) ->
          if Xoshiro.accepts ~bound v <> expect then
            Alcotest.failf "bound %d: v = %Lx %s" bound v
              (if expect then "rejected" else "accepted"))
        [ (Int64.pred limit, true); (limit, false); (Int64.max_int, false);
          (0L, true) ])
    reference_bounds

(* The same measurement as test_crypto's allocation pins. *)
let minor_words_per_call f =
  f ();
  let iters = 2_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let rng_draws_allocation_free () =
  let g = Rng.create 5L and buf = Array.make 86 0 in
  List.iter
    (fun bound ->
      let int_words = minor_words_per_call (fun () -> ignore (Rng.int g bound)) in
      if int_words > 0.01 then
        Alcotest.failf "Rng.int %d allocates %.3f words/draw" bound int_words;
      let fill_words =
        minor_words_per_call (fun () -> Rng.fill_int g bound buf ~len:86) /. 86.0
      in
      if fill_words > 0.01 then
        Alcotest.failf "Rng.fill_int %d allocates %.3f words/draw" bound fill_words)
    [ 1; 2; 6; 1000; 0x3FFFFFFF; 0x40000000; 0x7FFFFFFFF ]

let rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in range" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Rng.create (Int64.of_int seed) in
      let v = Rng.int g bound in
      v >= 0 && v < bound)

let rng_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 30) int))
    (fun (seed, xs) ->
      let g = Rng.create (Int64.of_int seed) in
      let arr = Array.of_list xs in
      Rng.shuffle g arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let () =
  Alcotest.run "prng"
    [ ( "splitmix64",
        [ Alcotest.test_case "deterministic" `Quick splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick splitmix_seed_sensitivity;
          Alcotest.test_case "mix pure" `Quick splitmix_mix_pure ] );
      ( "xoshiro",
        [ Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "matches Int64 reference" `Quick xoshiro_matches_reference;
          Alcotest.test_case "bool bits" `Quick xoshiro_bool_match_reference;
          Alcotest.test_case "accept boundary" `Quick xoshiro_accept_boundary;
          Alcotest.test_case "distribution" `Quick xoshiro_distribution;
          qcheck xoshiro_reference_qcheck ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split_at stable" `Quick rng_split_at_stable;
          Alcotest.test_case "split_at base-keyed" `Quick rng_split_does_not_disturb_split_at;
          Alcotest.test_case "int matches rejection reference" `Quick
            rng_int_matches_reference;
          Alcotest.test_case "fill_int matches rejection reference" `Quick
            rng_fill_int_matches_reference;
          Alcotest.test_case "fill_int shares the stream state" `Quick
            rng_fill_int_shares_state;
          Alcotest.test_case "fill_int rejects a bad len" `Quick rng_fill_int_rejects_bad_len;
          Alcotest.test_case "int and fill_int allocation-free" `Quick
            rng_draws_allocation_free;
          qcheck rng_int_bounds;
          qcheck rng_shuffle_is_permutation ] ) ]
