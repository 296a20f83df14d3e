let make_spec ~key ~cfg = Service.link ~label:"unicast-hop" ~key ~cfg

type stream = {
  sender : int;
  receiver : int;
  payloads : string list;
}

type stream_result = {
  stream : stream;
  received : (int * string) list;
}

type outcome = {
  engine : Radio.Engine.result;
  results : stream_result list;
  emulated_rounds : int;
  delivered_total : int;
  offered_total : int;
}

let run_streams ~cfg ~keys ~streams ~adversary () =
  (* Endpoint disjointness: each node plays one role. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then invalid_arg "Unicast.run_streams: overlapping endpoints";
          Hashtbl.add seen v ())
        [ s.sender; s.receiver ])
    streams;
  let emulated_rounds =
    List.fold_left (fun acc s -> max acc (List.length s.payloads)) 0 streams
  in
  let received_cells : (int * int, (int * string) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace received_cells (s.sender, s.receiver) (ref [])) streams;
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    match List.find_opt (fun s -> s.sender = id || s.receiver = id) streams with
    | Some stream when stream.sender = id ->
      let link = make_spec ~key:(keys (stream.sender, stream.receiver)) ~cfg in
      List.iteri
        (fun seq payload -> Service.broadcast link ~sender:id ~seq payload)
        stream.payloads;
      (* Pad to the longest stream so all fibers stay in lockstep. *)
      Radio.Engine.idle_for ((emulated_rounds - List.length stream.payloads) * link.reps)
    | Some stream ->
      let link = make_spec ~key:(keys (stream.sender, stream.receiver)) ~cfg in
      let cell = Hashtbl.find received_cells (stream.sender, stream.receiver) in
      for _ = 1 to emulated_rounds do
        match Service.recv link with
        | Some (_, seq, msg) when not (List.mem_assoc seq !cell) -> cell := (seq, msg) :: !cell
        | Some _ | None -> ()
      done
    | None -> Radio.Engine.idle_for (emulated_rounds * Service.reps cfg)
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let results =
    List.map
      (fun s ->
        let cell = Hashtbl.find received_cells (s.sender, s.receiver) in
        { stream = s;
          received =
            List.sort
              (fun (a, x) (b, y) -> if a <> b then Int.compare a b else String.compare x y)
              !cell })
      streams
  in
  let delivered_total = List.fold_left (fun acc r -> acc + List.length r.received) 0 results in
  let offered_total = List.fold_left (fun acc s -> acc + List.length s.payloads) 0 streams in
  { engine; results; emulated_rounds; delivered_total; offered_total }
