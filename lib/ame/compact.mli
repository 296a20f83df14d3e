(** The message-size optimization of Section 5.6: constant-size protocol
    frames via gossip epochs, reconstruction hashes, and vector signatures.

    Phase A (message gossip): each edge (v, w) gets an epoch of
    Theta(t^2 log n) rounds in which v broadcasts, on a fresh random channel
    each round, the payload m_v,w tagged with the reconstruction hash
    H1(m_i, ..., m_k) over the rest of its vector; everyone else listens on
    random channels and records every (body, hash) candidate heard — real or
    spoofed.

    Phase B (reconstruction, local computation): per owner, candidates are
    arranged into levels and chained backwards: a level-i candidate links to
    a level-(i+1) suffix exactly when its attached hash matches H1 of the
    combined chain.  Collision resistance caps surviving chains at one per
    candidate, defeating spoof floods.

    Phase C (vector signature): f-AME runs with each owner's vector replaced
    by the constant-size signature H2(M_v); the authenticated signature
    selects the unique genuine chain among the candidates.

    The honest frame size is thereby O(1) payloads + one hash, versus the
    Theta(n)-payload vectors of basic f-AME: experiment E11's measurement. *)

type calendar = {
  epoch_rounds : int;  (** rounds per epoch: the Theta(t^2 log n) knob *)
  epochs : ((int * int) * int * int) array;
      (** epoch e carries (edge, index within owner's vector, owner's vector
          length) *)
}

val make_calendar : pairs:(int * int) list -> budget:int -> n:int -> calendar
(** Deterministic public schedule of the gossip phase (the adversary may
    read it; epoch boundaries are protocol-deterministic).  Each epoch
    lasts [ceil (3 (t+1)^2 log2 n)] rounds. *)

val epoch_of_round : calendar -> int -> ((int * int) * int * int) option

val hash_chain : string list -> string
(** H1: collision-resistant hash of a message chain (length-prefixed
    concatenation under SHA-256). *)

val vector_signature : string list -> string
(** H2: domain-separated hash of a full vector M_v. *)

type outcome = {
  gossip_engine : Radio.Engine.result;
  fame : Fame.outcome;
  delivered : ((int * int) * string) list;  (** fully reconstructed payloads *)
  failed : (int * int) list;
  reconstruction_failures : int;
      (** pairs whose signature arrived but matched no candidate chain *)
  max_honest_payload : int;  (** largest honest frame across both phases *)
}

val run :
  cfg:Radio.Config.t ->
  pairs:(int * int) list ->
  messages:(int * int -> string) ->
  gossip_adversary:(calendar -> Radio.Adversary.t) ->
  fame_adversary:(Oracle.t -> Radio.Adversary.t) ->
  unit ->
  outcome
(** Stores at most 256 candidates per (owner, level) against spoof
    floods. *)

val chain_spoofer :
  Prng.Rng.t -> calendar -> channels:int -> budget:int -> Radio.Adversary.t
(** The natural phase-A attack: floods the current epoch with fake
    (body, hash) candidates carrying the genuine owner and index. *)
