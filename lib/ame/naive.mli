(** The purely randomized, unauthenticated exchange protocol that Theorem 2
    dooms — plus the simulating adversary from the theorem's proof.

    Each source broadcasts its message on a uniformly random channel every
    round; each destination listens on a uniformly random channel and
    outputs the first frame claiming its pair.  The {!simulating_adversary}
    mirrors each source's distribution with a fake payload; to the
    destination the two are statistically indistinguishable, so about half
    of all outputs are fake — experiment E7 measures this and contrasts it
    with f-AME's zero spoof rate on the same workload. *)

type verdict = Genuine | Fooled | Nothing

type outcome = {
  engine : Radio.Engine.result;
  verdicts : ((int * int) * verdict) list;  (** per pair, sorted *)
  fooled : int;
  genuine : int;
  nothing : int;
}

val simulating_adversary :
  Prng.Rng.t -> pairs:(int * int) list -> channels:int -> budget:int -> Radio.Adversary.t
(** For each of the first [budget] pairs, transmits the fake payload on an
    independently uniform channel each round (duplicate channel picks
    collapse to one strike, mirroring collisions among honest picks). *)

val run :
  rounds:int ->
  cfg:Radio.Config.t ->
  pairs:(int * int) list ->
  messages:(int * int -> string) ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** Runs the naive protocol for exactly [rounds] rounds. *)
