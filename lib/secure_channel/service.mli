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

(** {1 The sealed-hop link}

    The one send/receive path of Sections 6 and 7: a frame, encrypted and
    MACed with nonce (round, sender) under a cipher key bound to K, the
    run's seed and the label, is repeated for [reps] rounds
    on the channel PRF(K, label, round), while every key holder listens on
    the same hops and keeps the first authentic copy.  Three callers share
    it: this module's {!broadcast}/{!recv} (label ["channel-hop"]),
    {!Unicast}'s pairwise streams (["unicast-hop"]), and
    [Groupkey.Dissemination]'s Part 2 epochs (["channel-hop"] under each
    (leader, node) pair key).  Frames are sealed and opened in place with
    {!Crypto.Cipher.seal_into}/{!Crypto.Cipher.open_into}. *)

type link = {
  channels : int;
  reps : int;  (** real rounds per emulated round *)
  hop_label : string;  (** PRF label of the hopping pattern *)
  hop_prf : Crypto.Prf.Keyed.t;  (** prepared hop PRF for the key, queried every round *)
  cipher : Crypto.Cipher.key;
      (** prepared seal/open key: SHA-256(seed ‖ label ‖ "|" ‖ K), seed
          the config's as 8 big-endian bytes *)
  scratch : Crypto.Cipher.scratch;
      (** seal/open working buffers — one link may serve every node of a
          run, because node fibers run strictly sequentially within the
          engine's domain *)
}

val reps : Radio.Config.t -> int
(** [ceil(4 * (t+1) * log2 n)] — the Theta(t log n) repetitions of one
    emulated round; with C >= 2t the hop channel avoids the jammer with
    probability >= 1/2. *)

val link : label:string -> key:string -> cfg:Radio.Config.t -> link
(** The link under [key] over [cfg]'s channels, {!reps} rounds per
    emulated round; prepares the hop PRF and the cipher key once.  The
    hops are drawn under [key] alone; the cipher key is bound to [key],
    [label] and [cfg.seed], because nonces are unique only within one
    engine run (its rounds start at 0) and one key may serve several runs
    (a re-key reuses the setup's pair keys) or several labels in one run.
    So two runs that use one key must differ in seed: the group-key setup
    and re-key runs salt their seeds apart. *)

val hop : link -> round:int -> int
(** The meeting channel for absolute engine round [round]. *)

(** Each of the two operations below consumes exactly [link.reps] engine
    rounds; a participant with nothing to send or hear sits them out with
    {!Radio.Engine.idle_for}, so all participants stay in lockstep. *)

val send : link -> sender:int -> string -> unit
(** Every round r: seal the payload under the nonce [r] (high 32 bits) ‖
    [sender] (low 32 bits) and transmit it as a [Sealed] frame on
    [hop link ~round:r].  Rounds do not repeat within one engine run,
    another run under the same key seals under another cipher key (see
    {!link}), and two key holders that transmit in one round (a
    collision) seal under different nonces, so no (key, nonce) pair ever
    seals two different payloads. *)

val listen : link -> (string -> bool) -> unit
(** [listen link f]: every round r, listen on [hop link ~round:r]; the
    payload of each heard frame that opens goes to [f], until [f] returns
    [false] — after that frames are no longer opened, but listening lasts
    the [reps] rounds.  Only a frame whose nonce's round half is r is
    opened, so a frame replayed from an earlier round never reaches [f];
    spoofed or corrupted frames, and frames replayed from another run
    under the same key, fail MAC verification and never reach [f]
    either. *)

(** {1 The broadcast service} *)

val make_spec : key:string -> cfg:Radio.Config.t -> link
(** The group's link: label ["channel-hop"]. *)

val broadcast : link -> sender:int -> seq:int -> string -> unit
(** {!send} [msg] framed with its sender and sequence number (requires
    holding the key). *)

val recv : link -> (int * int * string) option
(** {!listen} through one emulated round; [Some (sender, seq, msg)] from
    the first authentic, well-framed payload. *)

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
  spec:link ->
  sends:(int * int * string) list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** [sends] lists (emulated_round, sender, message); rounds not mentioned
    are listen-only.  [key_holders] are the nodes possessing K (typically
    all but t).  Raises [Invalid_argument] unless every sender holds the
    key, every round is non-negative and no sender appears twice in one
    round (two different senders may share a round). *)
