type outcome = {
  engine : Radio.Engine.result;
  agreed : int;
  overheard : int;
  breached : bool;
  sender_key : string option;
  receiver_key : string option;
}

let value_body rng =
  String.init 8 (fun _ -> Char.chr (Prng.Rng.int rng 256))

let derive values =
  if values = [] then None
  else begin
    let buf = Buffer.create 64 in
    List.iter
      (fun (round, v) ->
        Buffer.add_string buf (string_of_int round);
        Buffer.add_char buf ':';
        Buffer.add_string buf v;
        Buffer.add_char buf '|')
      values;
    Some (Crypto.Sha256.digest ("it-secret|" ^ Buffer.contents buf))
  end

let run ~rounds ~cfg ~sender ~receiver ~eavesdrop_channels ?(jam_budget = 0) () =
  let channels = cfg.Radio.Config.channels in
  let n = cfg.Radio.Config.n in
  if jam_budget > cfg.Radio.Config.t then invalid_arg "Secret_bits.run: jam_budget > t";
  if sender = receiver || sender >= n || receiver >= n then
    invalid_arg "Secret_bits.run: bad endpoints";
  (* Sender-side record of transmitted values and channels, receiver-side
     receptions. *)
  let sent : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let sender_channel_of_round : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let got : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    for _ = 1 to rounds do
      if id = sender then begin
        let round = Radio.Engine.current_round () in
        let body = value_body ctx.rng in
        let chan = Prng.Rng.int ctx.rng channels in
        Hashtbl.replace sent round body;
        Hashtbl.replace sender_channel_of_round round chan;
        Radio.Engine.transmit ~chan
          (Radio.Frame.Plain { src = sender; dst = receiver; body })
      end
      else if id = receiver then begin
        let round = Radio.Engine.current_round () in
        match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.rng channels) with
        | Some (Radio.Frame.Plain { src; dst; body }) when src = sender && dst = receiver ->
          Hashtbl.replace got round body
        | Some _ | None -> ()
      end
      else Radio.Engine.idle ()
    done
  in
  (* The restricted eavesdropper: monitors [eavesdrop_channels] random
     channels per round; may jam a subset of those it monitors. *)
  let adv_rng = Prng.Rng.create (Int64.logxor cfg.Radio.Config.seed 0xEA5EL) in
  let monitored : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  (* Reusable permutation scratch: reset to the identity before each
     shuffle, so the RNG consumption (and hence every result) is identical
     to a freshly allocated [Array.init channels Fun.id] per round. *)
  let perm = Array.init channels Fun.id in
  let watched_count = min eavesdrop_channels channels in
  let adversary =
    { Radio.Adversary.name = "restricted-eavesdropper";
      act =
        (fun ~round ->
          for i = 0 to channels - 1 do
            (* radio-lint: allow partial-array-unsafe — perm has length channels *)
            Array.unsafe_set perm i i
          done;
          Prng.Rng.shuffle adv_rng perm;
          let rec prefix i =
            if i >= watched_count then [] else perm.(i) :: prefix (i + 1)
          in
          let watched = prefix 0 in
          Hashtbl.replace monitored round watched;
          if jam_budget = 0 then []
          else
            List.filteri (fun i _ -> i < jam_budget) watched
            |> List.map (fun chan -> { Radio.Adversary.chan; spoof = None }));
      observe = None }
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  (* Public reconciliation: the receiver's round indices select the agreed
     values (indices are public, contents are not).  The eavesdropper knows
     an agreed value iff the channel the sender used that round is in its
     monitored set. *)
  let agreed_rounds = Det.keys got in
  let overheard =
    List.length
      (List.filter
         (fun round ->
           match (Hashtbl.find_opt sender_channel_of_round round,
                  Hashtbl.find_opt monitored round) with
           | Some chan, Some watched -> List.mem chan watched
           | _ -> false)
         agreed_rounds)
  in
  let agreed = List.length agreed_rounds in
  let receiver_values = List.map (fun r -> (r, Hashtbl.find got r)) agreed_rounds in
  let sender_values =
    List.filter_map
      (fun r -> Option.map (fun v -> (r, v)) (Hashtbl.find_opt sent r))
      agreed_rounds
  in
  { engine; agreed; overheard;
    breached = agreed > 0 && overheard = agreed;
    sender_key = derive sender_values;
    receiver_key = derive receiver_values }
