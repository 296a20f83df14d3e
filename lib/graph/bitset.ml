(* Flat bitsets over small-int node universes: the storage primitive under
   [Digraph.Dense], the vertex-cover solver's scratch graphs, and the game
   state's starred/universe sets.

   A set over capacity [n] is an [int array] of ceil(n/63) words, 63 bits
   per word (the OCaml native-int payload), bit [i] of word [w] holding
   node [w*63 + i].  All iteration is in ascending node order, so every
   traversal is deterministic. *)

type t = int array

let bits_per_word = 63

let create n =
  if n < 0 then invalid_arg "Bitset: negative capacity";
  Array.make ((n + bits_per_word - 1) / bits_per_word) 0

(* Per-word popcount, split into two halves so every mask constant fits in
   a 63-bit literal. *)
let popcount_word x =
  let half y =
    let y = y - ((y lsr 1) land 0x55555555) in
    let y = (y land 0x33333333) + ((y lsr 2) land 0x33333333) in
    let y = (y + (y lsr 4)) land 0x0F0F0F0F in
    (* Native-int multiply doesn't wrap at 32 bits like the classic trick
       assumes: extract the accumulator byte explicitly. *)
    ((y * 0x01010101) lsr 24) land 0xFF
  in
  half (x land 0xFFFFFFFF) + half (x lsr 32)

(* Number of trailing zeros of [b], a value with exactly one bit set. *)
let bit_index b = popcount_word (b - 1)

let mem s i =
  if i < 0 then false
  else
    let w = i / bits_per_word in
    w < Array.length s && s.(w) land (1 lsl (i mod bits_per_word)) <> 0

let check_range s i op =
  if i < 0 || i / bits_per_word >= Array.length s then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of range" op i)

let set s i =
  check_range s i "set";
  s.(i / bits_per_word) <- s.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let unset s i =
  check_range s i "unset";
  s.(i / bits_per_word) <- s.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let copy = Array.copy

let add s i =
  if mem s i then s
  else begin
    let s' = Array.copy s in
    set s' i;
    s'
  end

let count s =
  let total = ref 0 in
  for w = 0 to Array.length s - 1 do
    total := !total + popcount_word s.(w)
  done;
  !total

let is_empty s =
  let rec go w = w >= Array.length s || (s.(w) = 0 && go (w + 1)) in
  go 0

let iter f s =
  for w = 0 to Array.length s - 1 do
    let x = ref s.(w) in
    let base = w * bits_per_word in
    while !x <> 0 do
      let b = !x land - !x in
      f (base + bit_index b);
      x := !x lxor b
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let equal = ( = )

let word s w = s.(w)

let set_word s w x = s.(w) <- x

let words s = Array.length s
