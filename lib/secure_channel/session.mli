(** Message sessions over the emulated secure channel: fragmentation,
    reassembly, and duplicate suppression.

    The broadcast service of Section 7 moves one frame per emulated round;
    real payloads (files, long messages) need a session layer on top.  This
    module fragments a message into MTU-sized pieces — one per emulated
    round — and reassembles on the receiver side, dropping duplicates and
    replays by (sender, message id).  Everything rides inside the service's
    encrypted, MACed frames, so the adversary can at worst suppress
    fragments (forcing a reassembly timeout), never corrupt or splice. *)

(** {1 Fragment codec} *)

val fragment : mtu:int -> msg_id:int -> string -> string list
(** Split a message into [ceil (len / mtu)] encoded fragments.  Requires
    [mtu > 0] and [0 <= msg_id < 2^31]; messages up to 65535 fragments. *)

val decode_fragment : string -> (int * int * int * string) option
(** [Some (msg_id, index, count, piece)] for a well-formed fragment. *)

(** {1 Reassembly} *)

type reassembler

val create_reassembler : unit -> reassembler

val feed : reassembler -> sender:int -> string -> (int * string) option
(** Feed one received fragment payload; [Some (msg_id, message)] exactly
    once, when the last missing piece of a (sender, msg_id) arrives.
    Duplicate fragments and already-completed messages are ignored. *)

val pending : reassembler -> (int * int * int * int) list
(** Incomplete reassemblies: (sender, msg_id, have, want). *)

(** {1 Workload runner} *)

type delivery = {
  sender : int;
  msg_id : int;
  message : string;
  completed_by : int list;  (** nodes that received every fragment; sorted *)
}

type outcome = {
  engine : Radio.Engine.result;
  deliveries : delivery list;
  emulated_rounds : int;
  fragments_sent : int;
}

val run_workload :
  cfg:Radio.Config.t ->
  key_holders:int list ->
  spec:Service.spec ->
  mtu:int ->
  sends:(int * string) list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [sends] is a list of (sender, message); messages are transmitted
    back-to-back (each fragment in its own emulated round of
    {!Service.run_workload}), all nodes listening otherwise.  Senders take
    turns in list order and must hold the key.  A node completes a message
    when it received every one of its fragments. *)
