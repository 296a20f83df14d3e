(** Ground-truth record of what happened on the air.

    The engine produces one {!round_record} per round.  Adversary strategies
    receive each record after the round completes (the paper grants the
    adversary full knowledge of all completed rounds, including random
    choices); tests use records to verify authenticity and disruption
    claims.  The engine folds every round into {!Stats} and
    {!Channel_usage} as it resolves it, so the aggregates need no
    recording. *)

type origin = Honest of int | Adversarial

type outcome =
  | Empty  (** nobody transmitted *)
  | Delivered of { origin : origin; frame : Frame.t }  (** exactly one transmitter *)
  | Collision of { transmitters : int; jammed : bool }
      (** >= 2 transmitters, or a successful jam; [jammed] is true when the
          adversary participated *)

type round_record = {
  round : int;
  honest_tx : (int * int * Frame.t) list;  (** (node, channel, frame) *)
  listeners : (int * int) list;  (** (node, channel) *)
  strikes : (int * Frame.t option) list;  (** adversary: (channel, spoof or jam) *)
  outcomes : outcome array;  (** indexed by channel *)
}

val spoof_delivered : round_record -> bool
(** Did some listener receive an adversarial frame this round? *)

module Channel_usage : sig
  type t = {
    deliveries : int array;  (** receptions per physical channel *)
    collisions : int array;  (** collision outcomes per physical channel *)
    jammed : int array;  (** jammed collisions per physical channel *)
  }
  (** Per-physical-channel accounting, accumulated by the engine on every
      run.  Arrays are indexed by channel; the counts match {!Stats}
      semantics exactly (deliveries count receptions, a jammed channel
      contributes to both [collisions] and [jammed]). *)

  val create : int -> t
  (** [create channels]: all-zero counters. *)

  val note : t -> int -> outcome -> hearers:int -> unit
  (** Fold one resolved channel outcome in ([hearers] = listeners tuned to
      that channel this round). *)

  val pp : Format.formatter -> t -> unit
  (** One row per channel: delivered (receptions), collisions, jammed. *)
end

module Stats : sig
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

  (** Run totals, accumulated by the engine round by round.  [deliveries]
      and [spoofed_deliveries] count receptions (one per listener on a
      delivered channel), [collisions] counts channel collisions, and
      [jammed_rounds] the rounds with at least one jammed collision. *)

  val create : unit -> t

  val pp : Format.formatter -> t -> unit
end
