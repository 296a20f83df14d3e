(** Exhaustive f-AME verification against every strike strategy
    (Theorem 6, in the three channel regimes of Section 5.5).

    Honest coins are derandomized by fixing the configuration seed, so a
    full f-AME execution is a deterministic function of the adversary's
    strike sequence alone.  The adversary's only protocol-relevant choice
    is which <= t of the scheduled channels to strike in each
    message-transmission round (spoofing an occupied channel collides
    into the same silence as a jam, and feedback rounds keep every
    channel occupied by witnesses, so jamming is the whole strike space
    at message granularity).  That makes the strike-strategy space
    isomorphic to the referee tree of {!Game_tree}, which this module
    enumerates completely: one engine execution per strategy, each
    compared move-for-move against the pure-game replay oracle —
    delivered pairs, failed pairs, confirmed (sender-awareness) pairs,
    authenticated payloads, disruption cover <= t, zero divergence, and
    an {e exact} round count predicted from the feedback arithmetic. *)

type regime = {
  name : string;  (** e.g. ["C=t+1 sequential"] *)
  budget : int;  (** the adversary's t *)
  channels : int;  (** C *)
  channels_used : int;  (** the game's proposal size *)
  mode : Ame.Fame.feedback_mode;
  pairs : (int * int) list;  (** the exchange set E *)
  jam_feedback : bool;
      (** additionally jam channels [0..t-1] during every feedback round
          (stresses Lemma 5's agreement on top of the scripted strikes) *)
  seed : int64;  (** the derandomized honest-coin seed *)
}

type result = {
  strategies : int;  (** distinct strike strategies enumerated (tree leaves) *)
  runs : int;  (** engine executions (one per strategy) *)
  engine_rounds : int;  (** simulated rounds summed over all runs *)
  worst_rounds : int;  (** slowest completion over all strategies *)
  worst_moves : int;  (** most game moves over all strategies *)
  worst_path : string;  (** a strike sequence attaining [worst_rounds] *)
  violations : string list;
}

val check : regime -> path_limit:int -> jobs:int -> result
(** Enumerates all strike strategies of [regime] (failing loudly, never
    truncating, past [path_limit] leaves), runs each through the radio
    engine with the strategies spread across the domain pool, and merges
    in enumeration order — identical output for every [jobs]. *)
