(** Dynamic re-keying after device compromise.

    The paper's introduction motivates establishing keys without
    pre-programming partly because "it might be useful to be able to re-key
    dynamically, for example, after the detection of a compromised device".
    This module provides that operation: given the pairwise keys from an
    earlier {!Protocol.run}, it distributes {e fresh} leader proposals and
    re-runs the agreement — skipping the expensive f-AME Part 1 — while
    excluding the compromised devices, whose pairwise keys are never used
    again.

    Cost: Theta(n t^2 log n) rounds (Parts 2-3 only), versus
    Theta(n t^3 log n) for a full setup. *)

type outcome = {
  engine : Radio.Engine.result;
  group_key : string option array;  (** per node *)
  agreed_key_holders : int;
  wrong_key_holders : int;
  excluded_with_key : int;
      (** compromised nodes that ended up holding the new key: must be 0 *)
  rounds : int;
}

val dissemination_cfg : Radio.Config.t -> Radio.Config.t
(** The configuration the re-key's Parts 2-3 run under: [cfg] with its
    seed salted apart from {!Protocol.dissemination_cfg}'s.  The re-key
    reuses the setup's pair keys, and its rounds restart at 0; the
    sealed-hop links bind their cipher keys to this seed, so no (pair
    key, round, sender) nonce seals the setup's and the re-key's
    proposals under one cipher key.  Two re-keys from one setup need
    different [cfg] seeds for the same reason. *)

val run :
  cfg:Radio.Config.t ->
  previous:Protocol.outcome ->
  compromised:int list ->
  hop_adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [run ~cfg ~previous ~compromised ~hop_adversary ()] re-keys the group
    from [previous]'s pairwise keys, cutting out [compromised].  Requires
    [compromised] to contain no leader (a compromised leader's pairwise keys
    are all suspect; re-run the full protocol in that case —
    [Invalid_argument] otherwise). *)
