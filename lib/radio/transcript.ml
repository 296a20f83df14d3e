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

  let pp fmt t =
    Format.fprintf fmt "%-8s %10s %10s %8s@." "channel" "delivered" "collisions" "jammed";
    Array.iteri
      (fun chan d ->
        Format.fprintf fmt "%-8d %10d %10d %8d@." chan d t.collisions.(chan) t.jammed.(chan))
      t.deliveries
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

  let pp fmt t =
    Format.fprintf fmt
      "rounds=%d tx=%d delivered=%d spoofed=%d collisions=%d jammed_rounds=%d strikes=%d \
       max_payload=%dB"
      t.rounds t.honest_transmissions t.deliveries t.spoofed_deliveries t.collisions
      t.jammed_rounds t.strikes t.max_payload
end
