let add_mod a b p =
  let s = Int64.add a b in
  if s >= p then Int64.sub s p else s

let mul_mod a b p =
  (* Binary multiplication: every intermediate stays below 2p < 2^62. *)
  assert (a >= 0L && b >= 0L && a < p && b < p);
  let acc = ref 0L in
  let base = ref a in
  let rest = ref b in
  while !rest > 0L do
    if Int64.logand !rest 1L = 1L then acc := add_mod !acc !base p;
    base := add_mod !base !base p;
    rest := Int64.shift_right_logical !rest 1
  done;
  !acc

let pow_mod b e p =
  assert (e >= 0L);
  let acc = ref 1L in
  let base = ref (Int64.rem b p) in
  let rest = ref e in
  while !rest > 0L do
    if Int64.logand !rest 1L = 1L then acc := mul_mod !acc !base p;
    base := mul_mod !base !base p;
    rest := Int64.shift_right_logical !rest 1
  done;
  !acc

let witnesses = [ 2L; 3L; 5L; 7L; 11L; 13L; 17L; 19L; 23L; 29L; 31L; 37L ]

let is_probable_prime n =
  if n < 2L then false
  else if List.mem n witnesses then true
  else if Int64.logand n 1L = 0L then false
  else begin
    (* n - 1 = d * 2^s with d odd. *)
    let s = ref 0 and d = ref (Int64.sub n 1L) in
    while Int64.logand !d 1L = 0L do
      d := Int64.shift_right_logical !d 1;
      incr s
    done;
    let strong_pseudoprime a =
      let x = pow_mod a !d n in
      if x = 1L || x = Int64.sub n 1L then true
      else begin
        let x = ref x and ok = ref false in
        for _ = 1 to !s - 1 do
          if not !ok then begin
            x := mul_mod !x !x n;
            if !x = Int64.sub n 1L then ok := true
          end
        done;
        !ok
      end
    in
    List.for_all (fun a -> Int64.rem a n = 0L || strong_pseudoprime (Int64.rem a n)) witnesses
  end

let find_safe_prime ~bits ~seed =
  if bits < 8 || bits > 61 then invalid_arg "Modarith.find_safe_prime: bits out of range";
  let low = Int64.shift_left 1L (bits - 1) in
  let high = Int64.shift_left 1L bits in
  let span = Int64.sub high low in
  let start =
    let raw = Prng.Splitmix64.mix seed in
    Int64.add low (Int64.rem (Int64.shift_right_logical raw 2) span)
  in
  (* Force start odd and scan upward, wrapping once at the top of the range. *)
  let start = Int64.logor start 1L in
  let rec scan candidate wrapped =
    if candidate >= high then
      if wrapped then failwith "Modarith.find_safe_prime: exhausted range"
      else scan (Int64.logor low 1L) true
    else
      let q = Int64.shift_right_logical (Int64.sub candidate 1L) 1 in
      if is_probable_prime candidate && is_probable_prime q then candidate
      else scan (Int64.add candidate 2L) wrapped
  in
  scan start false
