(** Parts 2-3 of the group-key protocol, reusable for re-keying.

    Given already-established pairwise keys, disseminates per-leader
    proposals over key-seeded channel hopping (Part 2) and runs the
    reporter-based agreement rule (Part 3).  {!Protocol.run} invokes this
    after the f-AME + DH setup; {!Rekey.run} invokes it directly with fresh
    proposals, skipping the expensive Part 1. *)

type outcome = {
  engine : Radio.Engine.result;
  leader_keys : (int * string) list array;  (** per node: leader, proposal *)
  group_key : string option array;  (** per node, after the agreement rule *)
}

val run :
  cfg:Radio.Config.t ->
  pairwise:(int -> (int * string) list) ->
  proposals:(int -> string) ->
  complete_leaders:int list ->
  excluded:int list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [pairwise v] is v's established (peer, key) list (sorted); [proposals v]
    is leader v's fresh group-key proposal; [excluded] nodes (compromised
    devices during a re-key) are skipped: leaders never run epochs toward
    them and they are dropped from reporter duty. *)

val majority : ?skip:(int -> bool) -> string option array -> string option * int
(** [majority group_key] is the key most nodes hold and how many hold it,
    ignoring the nodes [skip] names (default none) and nodes without a
    key; ties go to the smallest key.  [(None, 0)] when no node counts. *)
