type outcome = {
  engine : Radio.Engine.result;
  group_key : string option array;
  agreed_key_holders : int;
  wrong_key_holders : int;
  excluded_with_key : int;
  rounds : int;
}

(* Salts the re-key's proposals and its run seed apart from the setup's. *)
let seed_salt = 0x4E657741L

let dissemination_cfg cfg =
  { cfg with Radio.Config.seed = Int64.add cfg.Radio.Config.seed seed_salt }

let run ~cfg ~previous ~compromised ~hop_adversary () =
  let n = cfg.Radio.Config.n in
  let t = cfg.Radio.Config.t in
  let leaders = List.init (t + 1) Fun.id in
  List.iter
    (fun c ->
      if List.mem c leaders then
        invalid_arg "Rekey.run: compromised leader requires a full re-setup")
    compromised;
  let master = Prng.Rng.create (Int64.logxor cfg.Radio.Config.seed seed_salt) in
  let fresh_proposals =
    Array.init n (fun v ->
        let rng = Prng.Rng.split_at master (9000 + v) in
        String.concat ""
          (List.init 4 (fun _ -> Crypto.Dh.encode_public (Prng.Rng.bits64 rng))))
  in
  (* Pairwise keys survive from the previous setup, minus compromised
     peers. *)
  let pairwise v =
    if List.mem v compromised then []
    else
      List.filter
        (fun (peer, _) -> not (List.mem peer compromised))
        previous.Protocol.nodes.(v).Protocol.pairwise
  in
  let complete_leaders =
    (* A leader is complete for the re-key if it still shares keys with all
       but t of the surviving nodes. *)
    let survivors = n - List.length compromised in
    List.filter (fun v -> List.length (pairwise v) >= survivors - 1 - t) leaders
  in
  let diss =
    Dissemination.run ~cfg:(dissemination_cfg cfg)
      ~pairwise
      ~proposals:(fun v -> fresh_proposals.(v))
      ~complete_leaders ~excluded:compromised ~adversary:hop_adversary ()
  in
  let group_key = diss.Dissemination.group_key in
  let tally = Hashtbl.create 8 in
  Array.iteri
    (fun id k ->
      if not (List.mem id compromised) then
        match k with
        | Some k ->
          Hashtbl.replace tally k (1 + Option.value (Hashtbl.find_opt tally k) ~default:0)
        | None -> ())
    group_key;
  let majority_key, majority_count =
    Det.fold (fun k c (bk, bc) -> if c > bc then (Some k, c) else (bk, bc)) tally (None, 0)
  in
  let wrong =
    let count = ref 0 in
    Array.iteri
      (fun id k ->
        match (k, majority_key) with
        | Some k, Some mk when k <> mk && not (List.mem id compromised) -> incr count
        | _ -> ())
      group_key;
    !count
  in
  let excluded_with_key =
    List.length (List.filter (fun c -> group_key.(c) <> None) compromised)
  in
  { engine = diss.Dissemination.engine; group_key;
    agreed_key_holders = majority_count; wrong_key_holders = wrong; excluded_with_key;
    rounds = diss.Dissemination.engine.Radio.Engine.rounds_used }
