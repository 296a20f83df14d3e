type origin = Honest of int | Adversarial

type outcome =
  | Empty
  | Delivered of { origin : origin; frame : Frame.t }
  | Collision of { transmitters : int; jammed : bool }

type round_record = {
  round : int;
  honest_tx : (int * int * Frame.t) list;
  listeners : (int * int) list;
  strikes : (int * Frame.t option) list;
  outcomes : outcome array;
}

let spoof_delivered record =
  let adversarial_on chan =
    match record.outcomes.(chan) with
    | Delivered { origin = Adversarial; _ } -> true
    | Delivered { origin = Honest _; _ } | Empty | Collision _ -> false
  in
  List.exists (fun (_, chan) -> adversarial_on chan) record.listeners

module Channel_usage = struct
  type t = {
    deliveries : int array;
    collisions : int array;
    jammed : int array;
  }

  let create channels =
    { deliveries = Array.make channels 0;
      collisions = Array.make channels 0;
      jammed = Array.make channels 0 }

  (* Folds one resolved channel outcome in.  [hearers] is the listener count
     on the channel this round, matching the semantics of
     [Stats.deliveries]: deliveries count receptions, not occupied
     channels. *)
  let note t chan outcome ~hearers =
    match outcome with
    | Empty -> ()
    | Delivered _ -> t.deliveries.(chan) <- t.deliveries.(chan) + hearers
    | Collision { jammed = j; _ } ->
      t.collisions.(chan) <- t.collisions.(chan) + 1;
      if j then t.jammed.(chan) <- t.jammed.(chan) + 1
end

module Stats = struct
  type t = {
    mutable rounds : int;
    mutable honest_transmissions : int;
    mutable deliveries : int;
    mutable spoofed_deliveries : int;
    mutable collisions : int;
    mutable jammed_rounds : int;
    mutable strikes : int;
    mutable max_payload : int;
  }

  let create () =
    { rounds = 0; honest_transmissions = 0; deliveries = 0; spoofed_deliveries = 0;
      collisions = 0; jammed_rounds = 0; strikes = 0; max_payload = 0 }

  let absorb t record =
    t.rounds <- t.rounds + 1;
    t.honest_transmissions <- t.honest_transmissions + List.length record.honest_tx;
    t.strikes <- t.strikes + List.length record.strikes;
    List.iter
      (fun (_, _, frame) -> t.max_payload <- max t.max_payload (Frame.payload_size frame))
      record.honest_tx;
    let listeners_on = Array.make (Array.length record.outcomes) 0 in
    List.iter (fun (_, chan) -> listeners_on.(chan) <- listeners_on.(chan) + 1) record.listeners;
    let jammed = ref false in
    Array.iteri
      (fun chan outcome ->
        match outcome with
        | Empty -> ()
        | Delivered { origin; _ } ->
          (* Deliveries count actual receptions, not just occupied channels. *)
          t.deliveries <- t.deliveries + listeners_on.(chan);
          (match origin with
           | Adversarial -> t.spoofed_deliveries <- t.spoofed_deliveries + listeners_on.(chan)
           | Honest _ -> ())
        | Collision { jammed = j; _ } ->
          t.collisions <- t.collisions + 1;
          if j then jammed := true)
      record.outcomes;
    if !jammed then t.jammed_rounds <- t.jammed_rounds + 1

  let pp fmt t =
    Format.fprintf fmt
      "rounds=%d tx=%d delivered=%d spoofed=%d collisions=%d jammed_rounds=%d strikes=%d max_payload=%dB"
      t.rounds t.honest_transmissions t.deliveries t.spoofed_deliveries t.collisions
      t.jammed_rounds t.strikes t.max_payload
end
