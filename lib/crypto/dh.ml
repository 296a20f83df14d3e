type params = { p : int64; q : int64; g : int64 }

type keypair = { secret : int64; public : int64 }

let make_params ~bits ~seed =
  let p = Modarith.find_safe_prime ~bits ~seed in
  let q = Int64.shift_right_logical (Int64.sub p 1L) 1 in
  (* Squaring any h with h^2 mod p <> 1 yields a generator of the order-q
     subgroup (quadratic residues form the unique subgroup of order q). *)
  let rec pick_generator h =
    let g = Modarith.mul_mod (Int64.rem h p) (Int64.rem h p) p in
    if g <> 1L && g <> 0L then g else pick_generator (Int64.add h 1L)
  in
  { p; q; g = pick_generator 2L }

(* [make_params ~bits:61 ~seed:0x5EC0DE2008L], written out (a test pins the
   two together) so that no domain has to initialise it on first use. *)
let default_params = { p = 2283104279122411247L; q = 1141552139561205623L; g = 4L }

let generate ?params rng =
  let ps = Option.value params ~default:default_params in
  (* Uniform secret in [1, q). q < 2^60, so 63 random bits + rejection. *)
  let rec draw () =
    let v = Int64.shift_right_logical (Prng.Rng.bits64 rng) 4 in
    let v = Int64.rem v ps.q in
    if v >= 1L then v else draw ()
  in
  let secret = draw () in
  { secret; public = Modarith.pow_mod ps.g secret ps.p }

let shared_secret ?params ~secret peer_public =
  let ps = Option.value params ~default:default_params in
  Modarith.pow_mod peer_public secret ps.p

let derive_key ?(info = "") shared =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical shared (8 * (7 - i))) 0xFFL)))
  done;
  Sha256.digest ("dh-key-v1|" ^ info ^ "|" ^ Bytes.unsafe_to_string b)

let valid_public ?params y =
  let ps = Option.value params ~default:default_params in
  y > 1L && y < ps.p && Modarith.pow_mod y ps.q ps.p = 1L

let encode_public y =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical y (8 * (7 - i))) 0xFFL)))

let decode_public s =
  if String.length s <> 8 then None
  else begin
    let acc = ref 0L in
    String.iter
      (fun c -> acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code c)))
      s;
    if !acc < 0L then None else Some !acc
  end
