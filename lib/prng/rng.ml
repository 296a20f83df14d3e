type t = { engine : Xoshiro.t; base : int64 }

let create seed = { engine = Xoshiro.create seed; base = seed }

let bits64 t = Xoshiro.next t.engine

let split_at t label =
  let seed = Splitmix64.mix (Int64.logxor t.base (Splitmix64.mix (Int64.of_int label))) in
  { engine = Xoshiro.create seed; base = seed }

let int t bound =
  assert (bound > 0);
  Xoshiro.below t.engine bound

let fill_int t bound arr ~len =
  assert (bound > 0);
  Xoshiro.fill_below t.engine bound arr ~len

let bool t = Xoshiro.bool t.engine

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
