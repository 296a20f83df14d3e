(** Establishing a shared secret group key (Section 6).

    Part 1 — pairwise keys: f-AME swaps one-round Diffie-Hellman messages
    over the (t+1)-leader spanner (every ordered pair touching a leader), so
    each leader ends up sharing a secret key with all but at most t nodes.

    Part 2 — leader key dissemination: every (leader, node) pair with a
    shared key gets an epoch of Theta(t log n) rounds; the pair hops
    channels pseudo-randomly (PRF of the shared key), the leader
    transmitting its chosen group-key proposal encrypted and MACed.  A
    leader that failed to pair with more than t nodes instead announces
    itself incomplete.

    Part 3 — agreement: 2t+1 designated non-leader reporters each get an
    epoch of Theta(t^2 log n) rounds to broadcast, on random channels, the
    smallest leader whose key they received together with that key's hash.
    A node adopts the smallest leader for which it holds the key and has
    verified t+1 distinct reporters.  Since the smallest complete leader is
    reported by at least t+1 honest reporters and its key reached all but t
    nodes, all but t nodes adopt the same key, with high probability.

    Total cost Theta(n t^3 log n) rounds, dominated by Part 1. *)

type node_result = {
  pairwise : (int * string) list;  (** peer id, shared symmetric key *)
  leader_keys : (int * string) list;  (** leader id, received proposal *)
  group_key : string option;
}

type outcome = {
  fame : Ame.Fame.outcome;  (** Part 1 transcript *)
  engine : Radio.Engine.result;  (** Parts 2-3 transcript *)
  nodes : node_result array;
  complete_leaders : int list;
  agreed_key_holders : int;
      (** nodes holding the most common adopted key *)
  wrong_key_holders : int;
      (** nodes holding some other key (should be 0) *)
  no_key_holders : int;  (** nodes that correctly report ignorance *)
  total_rounds : int;
}

val reporters : t:int -> int list
(** The 2t+1 designated reporters of Part 3 (smallest non-leader ids). *)

val dissemination_cfg : Radio.Config.t -> Radio.Config.t
(** The configuration Parts 2-3 run under: [cfg] with its seed salted.
    The sealed-hop links' cipher keys are bound to that seed, so they
    differ from a re-key's under the same pair keys
    ({!Rekey.dissemination_cfg}). *)

val run :
  cfg:Radio.Config.t ->
  fame_adversary:(Ame.Oracle.t -> Radio.Adversary.t) ->
  hop_adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [hop_adversary] faces Parts 2-3, where honest channel choices are
    pseudo-random (Part 2) or uniform (Part 3); it cannot predict either. *)
