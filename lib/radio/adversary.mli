(** The malicious adversary of Section 3.

    Per round it may transmit on up to [t] channels — either pure noise
    (jamming) or a fabricated frame (spoofing) — and it hears everything.
    Information model, enforced by construction: {!field-act} is called
    {e before} honest nodes' current-round random choices exist, and
    {!field-observe} delivers the completed round afterwards (the paper lets
    the adversary learn all past random choices).

    Protocol-{e aware} attacks (e.g. jamming the deterministic f-AME
    schedule) are built by closing [act] over a schedule oracle supplied by
    the experiment; the oracle must expose only protocol-deterministic
    information. *)

type strike = { chan : int; spoof : Frame.t option }
(** One adversarial transmission: [spoof = None] is a jam (noise),
    [Some frame] attempts to plant a fake message. *)

type t = {
  name : string;
  act : round:int -> strike list;
  observe : (Transcript.round_record -> unit) option;
      (** [Some f] gets every completed round's record.  [None] (and
          transcript recording off) lets the engine take a cheap path that
          skips materializing per-round records entirely. *)
}

val validate : channels:int -> budget:int -> strike list -> strike list
(** Enforce the model: strikes beyond [budget] are clamped (dropped from
    the end of the list — transmissions the model simply ignores); each
    kept strike must name a distinct valid channel, anything else raises
    [Invalid_argument] (an adversary bug). *)

(** {1 Generic strategies} *)

val null : t
(** No interference. *)

val random_jammer : Prng.Rng.t -> channels:int -> budget:int -> t
(** Jams [budget] channels chosen uniformly at random each round. *)

val sweep_jammer : channels:int -> budget:int -> t
(** Deterministic round-robin over channel windows. *)

val spoofer :
  Prng.Rng.t -> channels:int -> budget:int -> forge:(round:int -> int -> Frame.t) -> t
(** On each of [budget] random channels, transmits a forged frame produced
    by [forge ~round chan]. *)

val reactive_jammer : Prng.Rng.t -> channels:int -> budget:int -> t
(** Jams the channels that carried the most honest traffic in the previous
    round (ties broken at random); models a listen-then-jam attacker against
    protocols with round-to-round channel locality. *)

val energy_bounded : total:int -> t -> t
(** Wraps a strategy with a total-energy budget (the related-work model of
    Gilbert-Guerraoui-Newport and Koo et al.): every transmitted strike
    costs one unit, and once [total] units are spent the adversary falls
    silent forever.  Strikes beyond the remaining budget are dropped from
    the end of the inner strategy's list. *)
