(* The linear-scan schedule lookups: the oracle that the inverted role
   index ([Ame.Schedule.role_of] / [witness_channel]) is checked against.
   They read only the schedule's public per-channel arrays, O(k * watchers)
   per query. *)

open Ame

let role_of (t : Schedule.t) id =
  let rec scan c =
    if c >= Array.length t.items then Schedule.Off
    else if t.broadcaster.(c) = id then Schedule.Broadcast { channel = c; owner = t.owner.(c) }
    else if t.receiver.(c) = Some id then
      match t.items.(c) with
      | Game.State.Edge edge -> Schedule.Receive { channel = c; edge }
      | Game.State.Node _ -> invalid_arg "Schedule_scan.role_of: receiver on a node channel"
    else if Array.mem id t.watchers.(c) then Schedule.Watch { channel = c }
    else scan (c + 1)
  in
  scan 0

let witness_channel (t : Schedule.t) id =
  let rec scan c =
    if c >= Array.length t.items then None
    else if Array.mem id (Array.sub t.watchers.(c) 0 t.witness_size) then Some c
    else scan (c + 1)
  in
  scan 0
