let block_size = 64

(* The padded key block XORed with [byte], for a key already at most one
   block long: shorter keys are implicitly zero-padded (0 lxor byte =
   byte), with no intermediate normalized-key string. *)
let xor_pad key byte =
  let kl = String.length key in
  let b = Bytes.make block_size (Char.chr byte) in
  for i = 0 to kl - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (String.unsafe_get key i) lxor byte))
  done;
  Bytes.unsafe_to_string b

(* A prepared key: the SHA-256 midstates after absorbing the ipad and opad
   blocks.  Each MAC then replays a copy of each midstate, saving the two
   pad-block compressions (and the pad/message concatenations) that the
   naive construction pays per call. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let key raw =
  let k = if String.length raw > block_size then Sha256.digest raw else raw in
  let inner = Sha256.init () in
  Sha256.update inner (xor_pad k 0x36);
  let outer = Sha256.init () in
  Sha256.update outer (xor_pad k 0x5c);
  { inner; outer }

let mac_feed { inner; outer } feed =
  let ictx = Sha256.copy inner in
  feed ictx;
  let inner_digest = Sha256.finalize ictx in
  let octx = Sha256.copy outer in
  Sha256.update octx inner_digest;
  Sha256.finalize octx

let mac_keyed k msg = mac_feed k (fun ctx -> Sha256.update ctx msg)

(* Reusable working state for batch MACs: one inner and one outer context
   plus a buffer for the inner digest, overwritten per frame via
   [Sha256.copy_into] so a whole epoch's worth of MACs performs zero
   per-frame context or digest allocations. *)
type scratch = {
  s_inner : Sha256.ctx;
  s_outer : Sha256.ctx;
  s_digest : Bytes.t; (* 32-byte inner digest *)
}

let scratch () =
  { s_inner = Sha256.init (); s_outer = Sha256.init ();
    s_digest = Bytes.create Sha256.digest_size }

let mac_feed_into k s feed out ~pos =
  Sha256.copy_into k.inner ~into:s.s_inner;
  feed s.s_inner;
  Sha256.finalize_into s.s_inner s.s_digest ~pos:0;
  Sha256.copy_into k.outer ~into:s.s_outer;
  Sha256.update_bytes s.s_outer s.s_digest ~pos:0 ~len:Sha256.digest_size;
  Sha256.finalize_into s.s_outer out ~pos

let mac_batch k msgs =
  let s = scratch () in
  let out = Bytes.create Sha256.digest_size in
  Array.map
    (fun msg ->
      mac_feed_into k s (fun ctx -> Sha256.update ctx msg) out ~pos:0;
      Bytes.to_string out)
    msgs

(* One-shot: feed the pads straight into fresh contexts instead of building
   a handle, skipping the midstate snapshots a throwaway key would pay. *)
let mac ~key:raw msg =
  let k = if String.length raw > block_size then Sha256.digest raw else raw in
  let ictx = Sha256.init () in
  Sha256.update ictx (xor_pad k 0x36);
  Sha256.update ictx msg;
  let inner_digest = Sha256.finalize ictx in
  let octx = Sha256.init () in
  Sha256.update octx (xor_pad k 0x5c);
  Sha256.update octx inner_digest;
  Sha256.finalize octx

(* Constant-time acceptance: the length check is folded into the same
   accumulator as the byte comparison, and the loop always walks the full
   expected tag, so timing does not distinguish a wrong-length tag from a
   wrong-byte tag.  Lengths are public: only a tag shorter than [expect]
   wraps its reads (an empty one reads as 0xFF), and the common full-length
   compare takes no division per byte. *)
let equal_ct_sub ~expect tag ~pos ~len =
  let le = Bytes.length expect in
  let diff = ref (le lxor len) in
  for i = 0 to le - 1 do
    let t =
      if len >= le then Char.code (String.unsafe_get tag (pos + i))
      else if len = 0 then 0xFF
      else Char.code (String.unsafe_get tag (pos + (i mod len)))
    in
    diff := !diff lor (Char.code (Bytes.unsafe_get expect i) lxor t)
  done;
  !diff = 0

let equal_ct ~expect ~tag =
  equal_ct_sub ~expect:(Bytes.unsafe_of_string expect) tag ~pos:0 ~len:(String.length tag)

let verify_batch k ~tags msgs =
  let n = Array.length msgs in
  if Array.length tags <> n then invalid_arg "Hmac.verify_batch: length mismatch";
  let s = scratch () in
  let out = Bytes.create Sha256.digest_size in
  Array.init n (fun i ->
      mac_feed_into k s (fun ctx -> Sha256.update ctx msgs.(i)) out ~pos:0;
      (* [out] is only read inside this [equal_ct] call before the next
         frame overwrites it, so the unsafe view never escapes. *)
      equal_ct ~expect:(Bytes.unsafe_to_string out) ~tag:tags.(i))
