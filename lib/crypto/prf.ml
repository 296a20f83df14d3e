module Keyed = struct
  type t = { hmac : Hmac.key }

  let create key = { hmac = Hmac.key key }

  let bytes t ~label ~counter =
    (* HMAC(key, label || 0x00 || counter_be8), fed incrementally: no
       pad/label/counter concatenation, and the ipad/opad compressions are
       already paid for by the handle. *)
    Hmac.mac_feed t.hmac (fun ctx ->
        Sha256.update ctx label;
        let tail = Bytes.create 9 in
        Bytes.set tail 0 '\000';
        Bytes.set_int64_be tail 1 (Int64.of_int counter);
        Sha256.update_bytes ctx tail ~pos:0 ~len:9)

  let int64 t ~label ~counter =
    let raw = bytes t ~label ~counter in
    Int64.shift_right_logical (String.get_int64_be raw 0) 1

  let below t ~label ~counter bound =
    assert (bound > 0);
    (* Modulo bias is < bound/2^63: irrelevant for channel counts. *)
    Int64.to_int (Int64.rem (int64 t ~label ~counter) (Int64.of_int bound))

  let channel_hop t ~round ~channels = below t ~label:"channel-hop" ~counter:round channels

  (* Reusable working state for {!keystream_into}: one SHA-256 context,
     the 9-byte 0x00+counter tail, and a spill buffer for the final
     partial block.  Lets the cipher generate keystream with no per-block
     allocation. *)
  type scratch = { ctx : Sha256.ctx; tail : Bytes.t; last : Bytes.t }

  let scratch () =
    { ctx = Sha256.init (); tail = Bytes.make 9 '\000';
      last = Bytes.create Sha256.digest_size }

  let keystream_into t s ~nonce ~nonce_off ~nonce_len out ~pos ~len =
    (* Block [i] is HMAC's inner hash, SHA-256(ipad || "ks|" || nonce ||
       0x00 || i_be8), the label fed as two updates instead of being
       concatenated: one compression per block, the ipad block's already
       paid for by the handle.  Under one key every input has one length,
       so the cascade is a PRF on them (see DESIGN.md).  One [feed] serves
       every block: it reads the counter from [s.tail]. *)
    let feed ctx =
      Sha256.update ctx "ks|";
      Sha256.feed_string ctx nonce ~off:nonce_off ~len:nonce_len;
      Sha256.update_bytes ctx s.tail ~pos:0 ~len:9
    in
    Bytes.set s.tail 0 '\000';
    let off = ref 0 and block = ref 0 in
    while !off < len do
      Bytes.set_int64_be s.tail 1 (Int64.of_int !block);
      let take = min Sha256.digest_size (len - !off) in
      if take = Sha256.digest_size then
        Hmac.inner_feed_into t.hmac s.ctx feed out ~pos:(pos + !off)
      else begin
        Hmac.inner_feed_into t.hmac s.ctx feed s.last ~pos:0;
        Bytes.blit s.last 0 out (pos + !off) take
      end;
      off := !off + take;
      incr block
    done

  let keystream t ~nonce len =
    let out = Bytes.create len in
    let nonce_len = String.length nonce in
    keystream_into t (scratch ()) ~nonce ~nonce_off:0 ~nonce_len out ~pos:0 ~len;
    Bytes.unsafe_to_string out
end

let bytes ~key ~label ~counter = Keyed.bytes (Keyed.create key) ~label ~counter

let int64 ~key ~label ~counter = Keyed.int64 (Keyed.create key) ~label ~counter

let below ~key ~label ~counter bound = Keyed.below (Keyed.create key) ~label ~counter bound

let channel_hop ~key ~round ~channels = Keyed.channel_hop (Keyed.create key) ~round ~channels

let keystream ~key ~nonce len = Keyed.keystream (Keyed.create key) ~nonce len
