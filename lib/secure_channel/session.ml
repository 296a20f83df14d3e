let fragment ~mtu ~msg_id message =
  if mtu <= 0 then invalid_arg "Session.fragment: mtu must be positive";
  if msg_id < 0 then invalid_arg "Session.fragment: negative msg_id";
  let len = String.length message in
  let count = max 1 ((len + mtu - 1) / mtu) in
  if count > 0xFFFF then invalid_arg "Session.fragment: message too large for mtu";
  List.init count (fun index ->
      let piece = String.sub message (index * mtu) (min mtu (len - (index * mtu))) in
      let b = Bytes.create (9 + String.length piece) in
      Bytes.set b 0 'F';
      Bytes.set_int32_be b 1 (Int32.of_int msg_id);
      Bytes.set_uint16_be b 5 index;
      Bytes.set_uint16_be b 7 count;
      Bytes.blit_string piece 0 b 9 (String.length piece);
      Bytes.to_string b)

let decode_fragment payload =
  if String.length payload < 9 || payload.[0] <> 'F' then None
  else begin
    let msg_id = Int32.to_int (String.get_int32_be payload 1) land 0xFFFF_FFFF in
    let index = String.get_uint16_be payload 5 in
    let count = String.get_uint16_be payload 7 in
    if msg_id < 0 || count = 0 || index >= count then None
    else Some (msg_id, index, count, String.sub payload 9 (String.length payload - 9))
  end

type partial = { count : int; pieces : (int, string) Hashtbl.t }

type reassembler = {
  partials : (int * int, partial) Hashtbl.t;  (* (sender, msg_id) *)
  completed : (int * int, unit) Hashtbl.t;
}

let create_reassembler () = { partials = Hashtbl.create 16; completed = Hashtbl.create 16 }

let feed r ~sender payload =
  match decode_fragment payload with
  | None -> None
  | Some (msg_id, index, count, piece) ->
    let key = (sender, msg_id) in
    if Hashtbl.mem r.completed key then None
    else begin
      let partial =
        match Hashtbl.find_opt r.partials key with
        | Some p when p.count = count -> p
        | Some _ | None ->
          (* A conflicting fragment count for the same id starts over (can
             only happen with a malformed sender; frames are MACed). *)
          let p = { count; pieces = Hashtbl.create 8 } in
          Hashtbl.replace r.partials key p;
          p
      in
      if not (Hashtbl.mem partial.pieces index) then
        Hashtbl.replace partial.pieces index piece;
      if Hashtbl.length partial.pieces = partial.count then begin
        Hashtbl.remove r.partials key;
        Hashtbl.replace r.completed key ();
        let buf = Buffer.create 64 in
        for i = 0 to partial.count - 1 do
          Buffer.add_string buf (Hashtbl.find partial.pieces i)
        done;
        Some (msg_id, Buffer.contents buf)
      end
      else None
    end

let pending r =
  List.map
    (fun ((sender, msg_id), partial) ->
      (sender, msg_id, Hashtbl.length partial.pieces, partial.count))
    (Det.bindings r.partials)

type delivery = {
  sender : int;
  msg_id : int;
  message : string;
  completed_by : int list;
}

type outcome = {
  engine : Radio.Engine.result;
  deliveries : delivery list;
  emulated_rounds : int;
  fragments_sent : int;
}

let run_workload ~cfg ~key_holders ~spec ~mtu ~sends ~adversary () =
  (* Lay out the schedule: message i gets msg_id i and a contiguous block of
     emulated rounds, one per fragment. *)
  let plan =
    List.mapi (fun i (sender, message) -> (i, sender, message, fragment ~mtu ~msg_id:i message)) sends
  in
  let schedule =
    List.concat_map (fun (_, sender, _, frags) -> List.map (fun f -> (sender, f)) frags) plan
  in
  let o =
    Service.run_workload ~cfg ~key_holders ~spec ~adversary
      ~sends:(List.mapi (fun er (sender, frag) -> (er, sender, frag)) schedule)
      ()
  in
  (* Service deliveries come back in emulated-round order, which is
     fragment order: message i owns the next [List.length frags] of them. *)
  let heard = Array.of_list o.Service.deliveries in
  let first = ref 0 in
  let deliveries =
    List.map
      (fun (msg_id, sender, message, frags) ->
        let block = Array.sub heard !first (List.length frags) in
        first := !first + Array.length block;
        let completed_by =
          List.filter
            (fun id -> Array.for_all (fun d -> List.mem id d.Service.received_by) block)
            block.(0).Service.received_by
        in
        { sender; msg_id; message; completed_by })
      plan
  in
  { engine = o.Service.engine; deliveries; emulated_rounds = List.length schedule;
    fragments_sent = List.length schedule }
