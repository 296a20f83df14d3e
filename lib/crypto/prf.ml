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
end

let bytes ~key ~label ~counter = Keyed.bytes (Keyed.create key) ~label ~counter

let int64 ~key ~label ~counter = Keyed.int64 (Keyed.create key) ~label ~counter

let below ~key ~label ~counter bound = Keyed.below (Keyed.create key) ~label ~counter bound

let channel_hop ~key ~round ~channels = Keyed.channel_hop (Keyed.create key) ~round ~channels

