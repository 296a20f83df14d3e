type t = { engine : Xoshiro.t; base : int64 }

let create seed = { engine = Xoshiro.create seed; base = seed }

let bits64 t = Xoshiro.next t.engine

let split t =
  let seed = Splitmix64.mix (bits64 t) in
  { engine = Xoshiro.create seed; base = seed }

let split_at t label =
  let seed = Splitmix64.mix (Int64.logxor t.base (Splitmix64.mix (Int64.of_int label))) in
  { engine = Xoshiro.create seed; base = seed }

let copy t = { engine = Xoshiro.copy t.engine; base = t.base }

(* Bounds up to [Xoshiro.max_below] take the engine's allocation-free
   bounded draw; larger ones use the same rejection sampler over boxed
   Int64 (both are tested against an Int64 reference in test_prng.ml). *)
let int_large t bound =
  let bound64 = Int64.of_int bound in
  (* Rejection over the top 63 bits keeps the draw exactly uniform. *)
  let range = Int64.max_int in
  let limit = Int64.sub range (Int64.rem range bound64) in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 t) 1 in
    if v < limit then Int64.to_int (Int64.rem v bound64) else draw ()
  in
  draw ()

let int t bound =
  assert (bound > 0);
  if bound <= Xoshiro.max_below then Xoshiro.below t.engine bound else int_large t bound

let fill_int t bound arr ~len =
  assert (bound > 0);
  if bound <= Xoshiro.max_below then Xoshiro.fill_below t.engine bound arr ~len
  else begin
    if len < 0 || len > Array.length arr then invalid_arg "Rng.fill_int: bad len";
    for i = 0 to len - 1 do
      arr.(i) <- int_large t bound
    done
  end

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t =
  Xoshiro.step t.engine;
  Xoshiro.out_lo t.engine land 1 = 1

let float t =
  (* 53 uniform bits mapped to [0,1). *)
  Xoshiro.step t.engine;
  let v = (Xoshiro.out_hi t.engine lsl 21) lor (Xoshiro.out_lo t.engine lsr 11) in
  float_of_int v /. 9007199254740992.0

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k xs =
  let arr = Array.of_list xs in
  assert (k <= Array.length arr);
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
