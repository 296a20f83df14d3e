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

let int t bound =
  assert (bound > 0);
  Xoshiro.below t.engine bound

let fill_int t bound arr ~len =
  assert (bound > 0);
  Xoshiro.fill_below t.engine bound arr ~len

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Xoshiro.bool t.engine

let float t = Xoshiro.float t.engine

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
