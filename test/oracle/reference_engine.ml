(* The dense reference engine: the plain round loop that the sparse core
   ([Radio.Engine.run]) is checked against.  It implements the Section 3
   round directly: every round scans all n fibers in node order, builds the
   round record from scratch, resolves every channel from that record, and
   folds the stats and channel usage out of it.  Nothing carries over
   between rounds but the fibers themselves. *)

open Radio

type k = (Engine.obs, unit) Effect.Deep.continuation

(* What each node's fiber is suspended on. *)
type fiber =
  | Finished
  | Transmit of int * Frame.t * k
  | Listen of int * k
  | Idle of k
  | Sleep of int * k  (** idle rounds left, this one included *)

exception Aborted

(* One honest transmitter is delivered; none is silence and several
   collide.  A strike collides with whatever else is on the channel, except
   that a lone spoof is delivered as the adversary's frame. *)
let resolve ~senders ~strike =
  match (strike, senders) with
  | None, [] -> Transcript.Empty
  | None, [ (i, frame) ] -> Transcript.Delivered { origin = Transcript.Honest i; frame }
  | None, _ -> Transcript.Collision { transmitters = List.length senders; jammed = false }
  | Some (Some frame), [] -> Transcript.Delivered { origin = Transcript.Adversarial; frame }
  | Some _, _ -> Transcript.Collision { transmitters = List.length senders + 1; jammed = true }

(* Fold one round record into the stats and the per-channel usage.
   Deliveries count receptions: one per listener on the channel. *)
let absorb (s : Transcript.Stats.t) (u : Transcript.Channel_usage.t)
    (r : Transcript.round_record) =
  s.rounds <- s.rounds + 1;
  s.honest_transmissions <- s.honest_transmissions + List.length r.honest_tx;
  s.strikes <- s.strikes + List.length r.strikes;
  List.iter
    (fun (_, _, frame) -> s.max_payload <- max s.max_payload (Frame.payload_size frame))
    r.honest_tx;
  let jammed_round = ref false in
  Array.iteri
    (fun chan outcome ->
      let hearers = List.length (List.filter (fun (_, c) -> c = chan) r.listeners) in
      match (outcome : Transcript.outcome) with
      | Empty -> ()
      | Delivered { origin; _ } ->
        s.deliveries <- s.deliveries + hearers;
        if origin = Adversarial then s.spoofed_deliveries <- s.spoofed_deliveries + hearers;
        u.deliveries.(chan) <- u.deliveries.(chan) + hearers
      | Collision { jammed; _ } ->
        s.collisions <- s.collisions + 1;
        u.collisions.(chan) <- u.collisions.(chan) + 1;
        if jammed then begin
          jammed_round := true;
          u.jammed.(chan) <- u.jammed.(chan) + 1
        end)
    r.outcomes;
  if !jammed_round then s.jammed_rounds <- s.jammed_rounds + 1

let run (cfg : Config.t) ~adversary nodes =
  let n = cfg.n and channels = cfg.channels in
  if Array.length nodes <> n then
    invalid_arg "Reference_engine.run: node array length must equal cfg.n";
  let fibers = Array.make n Finished in
  let round = ref 0 in
  let handler i =
    let park suspend = Some (fun k -> fibers.(i) <- suspend k) in
    { Effect.Deep.retc = (fun () -> fibers.(i) <- Finished);
      exnc = (fun e -> fibers.(i) <- Finished; match e with Aborted -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t)
          : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Engine.ETransmit (chan, frame) -> park (fun k -> Transmit (chan, frame, k))
          | Engine.EListen chan -> park (fun k -> Listen (chan, k))
          | Engine.EIdle -> park (fun k -> Idle k)
          | Engine.EIdleFor d -> park (fun k -> Sleep (d, k))
          | Engine.EListenRandom (_, bound, _) ->
            (* Always declined, once the bound is checked: the fiber then
               draws each hop and performs one [EListen] per round, the
               definition the sparse core's parked series is checked
               against. *)
            if bound < 1 || bound > cfg.channels then
              invalid_arg
                (Printf.sprintf "Engine.listen_random: bound %d outside 1..%d" bound
                   cfg.channels);
            Some (fun k -> Effect.Deep.continue k Engine.Declined)
          | Engine.Round -> Some (fun k -> Effect.Deep.continue k !round)
          | _ -> None) }
  in
  Array.iteri
    (fun i body ->
      let rng = Prng.Rng.split_at (Prng.Rng.create cfg.seed) (i + 1) in
      Effect.Deep.match_with body { Engine.id = i; rng; cfg } (handler i))
    nodes;
  let stats = Transcript.Stats.create () in
  let usage = Transcript.Channel_usage.create channels in
  let transcript = ref [] in
  let check_chan chan =
    if chan < 0 || chan >= channels then
      invalid_arg (Printf.sprintf "Engine: action on invalid channel %d" chan)
  in
  let waiting () = Array.exists (function Finished -> false | _ -> true) fibers in
  while waiting () && !round < cfg.max_rounds do
    (* 1. The round's declared actions, in node order. *)
    let declared = List.init n (fun i -> (i, fibers.(i))) in
    let honest_tx =
      List.filter_map
        (function i, Transmit (chan, frame, _) -> Some (i, chan, frame) | _ -> None)
        declared
    in
    let listeners =
      List.filter_map
        (function i, Listen (chan, _) -> Some (i, chan) | _ -> None)
        declared
    in
    List.iter (fun (_, chan, _) -> check_chan chan) honest_tx;
    List.iter (fun (_, chan) -> check_chan chan) listeners;
    (* 2. The adversary strikes without seeing this round's choices. *)
    let strikes =
      List.map
        (fun (s : Adversary.strike) -> (s.chan, s.spoof))
        (Adversary.validate ~channels ~budget:cfg.t (adversary.Adversary.act ~round:!round))
    in
    (* 3. Resolve every channel and account the round from its record. *)
    let outcomes =
      Array.init channels (fun chan ->
          resolve
            ~senders:
              (List.filter_map
                 (fun (i, c, frame) -> if c = chan then Some (i, frame) else None)
                 honest_tx)
            ~strike:(List.assoc_opt chan strikes))
    in
    let record = { Transcript.round = !round; honest_tx; listeners; strikes; outcomes } in
    absorb stats usage record;
    if cfg.record_transcript then transcript := record :: !transcript;
    Option.iter (fun observe -> observe record) adversary.Adversary.observe;
    incr round;
    (* 4. Resume the fibers with what they heard, in node order. *)
    let heard chan =
      match outcomes.(chan) with
      | Transcript.Delivered { frame; _ } -> Some frame
      | Transcript.Empty | Transcript.Collision _ -> None
    in
    for i = 0 to n - 1 do
      let resume k obs =
        fibers.(i) <- Finished;
        Effect.Deep.continue k obs
      in
      match fibers.(i) with
      | Finished -> ()
      | Transmit (_, _, k) | Idle k -> resume k Engine.Nothing
      | Listen (chan, k) ->
        resume k (match heard chan with Some f -> Engine.Received f | None -> Engine.Nothing)
      | Sleep (d, k) ->
        if d <= 1 then resume k Engine.Nothing else fibers.(i) <- Sleep (d - 1, k)
    done
  done;
  let completed = not (waiting ()) in
  Array.iter
    (function
      | Finished -> ()
      | Transmit (_, _, k) | Listen (_, k) | Idle k | Sleep (_, k) ->
        Effect.Deep.discontinue k Aborted)
    fibers;
  { Engine.stats; transcript = List.rev !transcript; completed; rounds_used = !round;
    channel_usage = usage }
