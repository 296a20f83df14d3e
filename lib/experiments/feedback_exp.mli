(** Experiment E5: Lemma 5 — communication-feedback terminates in
    O(t^2 log n) rounds and gets every node to agree on the disrupted-channel
    set with high probability.

    Sweeps the repetition multiplier beta to expose the failure-rate cliff:
    at the default beta the observed failure rate is 0 across all trials;
    starving the routine (beta < 1) makes disagreement appear, as the
    Chernoff argument predicts. *)

val e5 : quick:bool -> jobs:int -> Common.result

val agreement_trial :
  beta:float -> t:int -> n:int -> seed:int64 -> bool * int
(** One standalone invocation; returns (all nodes agreed with ground truth,
    rounds consumed).  A test seam: {!e5} reports only rates over many. *)
