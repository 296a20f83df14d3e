(** The long-lived secure communication service (Section 7).

    Once a group key K exists, the nodes emulate a single reliable broadcast
    channel: the channel-hopping pattern is PRF(K, round), so the adversary
    — who does not know K — cannot predict where the nodes meet.  One
    emulated round costs Theta(t log n) real rounds: the broadcaster repeats
    its encrypted, MACed frame on the hopping channel while everyone else
    listens there.  Guarantees (each measured by E9): t-reliability (only
    the at most t nodes without K are excluded), secrecy (all honest
    payloads travel encrypted), and authentication (a frame is attributed to
    v only if v sent it — the adversary cannot forge MACs under K).

    The emulation inherits real broadcast-channel semantics: if two key
    holders broadcast in the same emulated round their frames collide and
    may both be lost. *)

type spec = {
  key : string;
  channels : int;
  budget : int;
  reps : int;  (** real rounds per emulated round *)
  hop_label : string;
      (** PRF label of the hopping pattern: ["channel-hop"] from
          {!make_spec}; {!Unicast.make_spec} domain-separates pairwise hops
          with its own label *)
  hop_prf : Crypto.Prf.Keyed.t;
      (** prepared hop PRF for [key] — built once in {!make_spec}, queried
          every round *)
  cipher : Crypto.Cipher.key;  (** prepared seal/open key for [key] *)
  scratch : Crypto.Cipher.scratch;
      (** shared seal/open working buffers — safe because node fibers run
          strictly sequentially within the engine's domain *)
}

val make_spec : ?beta:float -> key:string -> cfg:Radio.Config.t -> unit -> spec
(** [reps = ceil(beta * (t+1) * log2 n)] — the Theta(t log n) knob; with
    C >= 2t the hop channel avoids the jammer with probability >= 1/2 and
    beta can shrink accordingly (same formula, smaller constant). *)

val hop : spec -> round:int -> int
(** The meeting channel for absolute engine round [round]. *)

(** {1 Node-side operations} — each consumes exactly [spec.reps] engine
    rounds, so all participants stay in lockstep. *)

val broadcast : spec -> sender:int -> seq:int -> string -> unit
(** Transmit [msg] in this emulated round (requires holding the key). *)

val recv : spec -> (int * int * string) option
(** Listen through this emulated round; [Some (sender, seq, msg)] on the
    first authentic frame.  Spoofed or corrupted frames fail MAC
    verification and are ignored. *)

val idle : spec -> unit
(** Sit out this emulated round (still consumes [spec.reps] rounds). *)

(** {1 Workload runner} *)

type delivery = {
  emulated_round : int;
  sender : int;
  message : string;
  received_by : int list;  (** sorted; excludes the sender *)
}

type outcome = {
  engine : Radio.Engine.result;
  deliveries : delivery list;
  emulated_rounds : int;
  real_rounds_per_emulated : int;
  plaintext_leaks : int;
      (** honest transmissions whose frame exposed a payload unencrypted:
          must be 0 (secrecy) *)
  forged_accepts : int;
      (** receptions attributed to a sender that never sent them: must be 0
          (authentication) *)
}

val run_workload :
  cfg:Radio.Config.t ->
  key_holders:int list ->
  spec:spec ->
  sends:(int * int * string) list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [sends] lists (emulated_round, sender, message); rounds not mentioned
    are listen-only.  [key_holders] are the nodes possessing K (typically
    all but t).  Requires senders to hold the key. *)
