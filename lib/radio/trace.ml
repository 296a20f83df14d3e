let pp_outcome fmt = function
  | Transcript.Empty -> Format.fprintf fmt "empty"
  | Transcript.Delivered { origin = Transcript.Honest v; frame } ->
    Format.fprintf fmt "delivered from %d: %a" v Frame.pp frame
  | Transcript.Delivered { origin = Transcript.Adversarial; frame } ->
    Format.fprintf fmt "SPOOFED: %a" Frame.pp frame
  | Transcript.Collision { transmitters; jammed } ->
    Format.fprintf fmt "collision (%d transmitters%s)" transmitters
      (if jammed then ", jammed" else "")

let pp_round fmt (r : Transcript.round_record) =
  Format.fprintf fmt "round %d@." r.Transcript.round;
  Array.iteri
    (fun chan outcome ->
      let listeners =
        List.filter_map
          (fun (node, c) -> if c = chan then Some (string_of_int node) else None)
          r.Transcript.listeners
      in
      Format.fprintf fmt "  ch%d: %a%s@." chan pp_outcome outcome
        (if listeners = [] then ""
         else Printf.sprintf "  [listeners: %s]" (String.concat "," listeners)))
    r.Transcript.outcomes

let pp_rounds ?(limit = 50) fmt records =
  let shown = List.filteri (fun i _ -> i < limit) records in
  List.iter (pp_round fmt) shown;
  let remaining = List.length records - List.length shown in
  if remaining > 0 then Format.fprintf fmt "... (%d more rounds)@." remaining

let outcome_fields = function
  | Transcript.Empty -> ("empty", "-", "-")
  | Transcript.Delivered { origin = Transcript.Honest v; frame } ->
    ("delivered", string_of_int v, Format.asprintf "%a" Frame.pp frame)
  | Transcript.Delivered { origin = Transcript.Adversarial; frame } ->
    ("delivered", "adversary", Format.asprintf "%a" Frame.pp frame)
  | Transcript.Collision { transmitters; jammed } ->
    ((if jammed then "jammed" else "collision"), string_of_int transmitters, "-")

let to_csv records =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "round,channel,outcome,origin,honest_tx,listeners,frame\n";
  List.iter
    (fun (r : Transcript.round_record) ->
      Array.iteri
        (fun chan outcome ->
          let kind, origin, frame = outcome_fields outcome in
          let honest =
            List.length (List.filter (fun (_, c, _) -> c = chan) r.Transcript.honest_tx)
          in
          let listeners =
            List.length (List.filter (fun (_, c) -> c = chan) r.Transcript.listeners)
          in
          Buffer.add_string buf
            (Printf.sprintf "%d,%d,%s,%s,%d,%d,%S\n" r.Transcript.round chan kind origin
               honest listeners frame))
        r.Transcript.outcomes)
    records;
  Buffer.contents buf
