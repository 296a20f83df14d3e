type violation = {
  round : int;
  channel : int option;
  what : string;
}

let pp_violation fmt v =
  match v.channel with
  | Some c -> Format.fprintf fmt "round %d, channel %d: %s" v.round c v.what
  | None -> Format.fprintf fmt "round %d: %s" v.round v.what

let check_record ~channels ~budget (r : Transcript.round_record) =
  let violations = ref [] in
  let flag ?channel what =
    violations := { round = r.Transcript.round; channel; what } :: !violations
  in
  (* Adversary discipline. *)
  if List.length r.Transcript.strikes > budget then
    flag
      (Printf.sprintf "%d strikes exceed budget %d" (List.length r.Transcript.strikes) budget);
  let strike_channels = List.map fst r.Transcript.strikes in
  if List.length (List.sort_uniq Int.compare strike_channels) <> List.length strike_channels
  then
    flag "duplicate strike channels";
  List.iter
    (fun c -> if c < 0 || c >= channels then flag ~channel:c "strike outside channel range")
    strike_channels;
  (* One action per node per round. *)
  let actors =
    List.map (fun (v, _, _) -> v) r.Transcript.honest_tx
    @ List.map fst r.Transcript.listeners
  in
  if List.length (List.sort_uniq Int.compare actors) <> List.length actors then
    flag "a node performed two actions in one round";
  (* Outcome reconstruction per channel. *)
  Array.iteri
    (fun chan outcome ->
      let honest = List.filter (fun (_, c, _) -> c = chan) r.Transcript.honest_tx in
      let strike = List.assoc_opt chan r.Transcript.strikes in
      let expected =
        match (honest, strike) with
        | [], None -> `Empty
        | [ (v, _, frame) ], None -> `Delivered (Transcript.Honest v, frame)
        | [], Some (Some frame) -> `Delivered (Transcript.Adversarial, frame)
        | [], Some None -> `Collision (1, true)
        | hs, s ->
          let adv = if Option.is_some s then 1 else 0 in
          `Collision (List.length hs + adv, adv > 0)
      in
      match (expected, outcome) with
      | `Empty, Transcript.Empty -> ()
      | `Delivered (eo, ef), Transcript.Delivered { origin; frame } ->
        if origin <> eo then flag ~channel:chan "wrong delivery origin";
        if not (Frame.equal frame ef) then flag ~channel:chan "wrong delivered frame"
      | `Collision (et, ej), Transcript.Collision { transmitters; jammed } ->
        if transmitters <> et then flag ~channel:chan "wrong collision transmitter count";
        if jammed <> ej then flag ~channel:chan "wrong jam attribution"
      | _, _ -> flag ~channel:chan "outcome kind contradicts transmissions")
    r.Transcript.outcomes;
  List.rev !violations

let check_model ~channels ~budget records =
  List.concat_map (check_record ~channels ~budget) records

let check_no_spoofed_delivery records =
  List.filter_map
    (fun (r : Transcript.round_record) ->
      if Transcript.spoof_delivered r then
        Some { round = r.Transcript.round; channel = None;
               what = "a listener received an adversarial frame" }
      else None)
    records

let audit ~channels ~budget records =
  check_model ~channels ~budget records @ check_no_spoofed_delivery records
