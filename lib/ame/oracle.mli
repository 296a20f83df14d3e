(** The deterministic-schedule oracle offered to protocol-aware adversaries.

    Everything posted here is information a real adversary could compute by
    itself — the f-AME schedule is a deterministic function of the public
    protocol, the exchange set E, and the (publicly audible) outcomes of
    completed rounds.  Node fibers post each upcoming message-transmission
    round's schedule before performing it; adversary strategies may read the
    entry for the round they are about to strike.  Honest random choices are
    never posted. *)

type item_kind = Node_item of int | Edge_item of (int * int)

type entry = {
  channels_in_use : int list;
  kinds : (int * item_kind) list;  (** (channel, what that channel carries) *)
}

type t

val create : unit -> t

val post : t -> round:int -> entry -> unit
(** Idempotent: every node posts the same entry for the same round. *)

val get : t -> round:int -> entry option
