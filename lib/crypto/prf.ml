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

  let below t ~label ~counter bound =
    assert (bound > 0);
    (* The first 8 bytes as a big-endian non-negative Int64, mod [bound].
       Modulo bias is < bound/2^63: irrelevant for channel counts. *)
    let v = Int64.shift_right_logical (String.get_int64_be (bytes t ~label ~counter) 0) 1 in
    Int64.to_int (Int64.rem v (Int64.of_int bound))
end

