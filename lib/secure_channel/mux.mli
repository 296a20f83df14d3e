(** Multiplexed secure-channel service: thousands of logical channels over
    one simulated radio network (ROADMAP item 2, Section 7 at scale).

    Each logical channel carries a sustained message stream with per-channel
    sequence numbers and a replay window; the group key is rolled forward
    every [epoch_len] emulated rounds (epoch keys derived by PRF from the
    group key, the run's seed and the epoch counter), with frames from the
    previous epoch honoured only during a [grace] window; bounded
    per-channel send queues shed load when the radio cannot keep up.

    All protocol work is one step per phase of an emulated round (see
    {!Step}): it judges the frames the service nodes heard in the phase
    before, then seals, MACs and places the frames this phase sends, with
    each epoch's keys prepared once per run.  One engine body serves every
    transport and ack mode, reading a per-mode layout (nodes per channel,
    slots, phases, flush round).  Each service node suspends once per idle
    span, resuming only to transmit or listen; the step runs at a phase's
    first action, which node 0 takes in the phase's first slot.  The
    per-frame part of the step's work — building and sealing payloads,
    checking, opening and parsing heard frames, the slotted ack MACs and
    their verification — fans out in contiguous chunks of at most 256
    items over the domain pool of the enclosing [Parallel.run] scope (see
    {!run}), through the {!Crypto.Cipher} in-place entry points and the
    {!Crypto.Hmac} scratch ones under shared read-only keys.  Frames are
    sealed straight into their wire buffers and opened in place, and a
    chunk's result array stays small enough to be born on the minor heap,
    so no chunk forces a minor collection, which would stop every pool
    domain.  Everything else is serial: epoch keys are derived before the
    fan-out, and every window, queue, counter, latency sample and plan
    entry is updated on the calling domain after the join.  Output is
    identical for every pool size. *)

(** Pure sliding replay window over per-channel sequence numbers.  Exposed
    for property tests. *)
module Window : sig
  type t

  type verdict = Fresh | Duplicate | Out_of_window

  val create : width:int -> t
  (** [width] in 1..62 (the mask lives in one OCaml int). *)

  val check : t -> int -> verdict
  (** Judge a sequence number: above the window top is [Fresh]; more than
      [width - 1] below it is [Out_of_window]; inside the window, [Duplicate]
      iff already delivered. *)

  val note : t -> int -> unit
  (** Record a delivery (callers [note] exactly the [Fresh] ones). *)

  val highest : t -> int
  (** Highest delivered sequence number, or [-1] if none yet. *)
end

type epoch_verdict = Current | Previous | Stale

val epoch_verdict :
  epoch_len:int -> grace:int -> now:int -> frame_epoch:int -> epoch_verdict
(** Judge a frame sealed under [frame_epoch] arriving in emulated round
    [now]: the current epoch ([now / epoch_len]) always decodes; the
    previous one only within the first [grace] rounds after the boundary;
    everything else — including claimed future epochs — is [Stale] and is
    rejected without a decryption attempt.  Pure; exposed for property
    tests. *)

type transport =
  | Acked
      (** One sender/receiver pair per logical channel; slotted data and
          ack phases, each closed by a sync round
          ([2 * ceil(logical / phys) + 2] real rounds per emulated round).
          A message is sent, delivered, and acknowledged within one
          emulated round; lost frames or acks drive retransmission and
          queue draining. *)
  | Repeat of { reps : int; group : int }
      (** [group] members per logical channel; the designated sender
          repeats the sealed head frame [reps] times on a PRF-hopping
          channel ([reps + 1] real rounds per emulated round) — the E9
          broadcast shape. *)

type ack_mode =
  | Slotted  (** dedicated ack phase: [2S + 2] real rounds per emulated *)
  | Piggybacked
      (** Acked transport only, [logical] even.  Channels are paired as
          duplex streams (channel [c] and [c lxor 1] run between the same
          two nodes, one node per channel), and the cumulative ack for the
          opposite direction rides inside each sealed data frame — or a
          bare sealed ack carrier when the queue is empty — so an emulated
          round is [max(S, 2) + 1] real rounds instead of [2S + 2].  A
          send window of 2 keeps the pipeline full at rate 1; one extra
          flush emulated round retires the final deliveries, so drained
          runs end with [acked = delivered] just like the slotted mode. *)

type spec = {
  key : string;  (** group key *)
  logical : int;  (** number of logical channels *)
  phys : int;  (** physical radio channels *)
  budget : int;  (** adversary strikes per round *)
  transport : transport;
  ack_mode : ack_mode;
  rounds : int;  (** emulated rounds to run *)
  rate : int;  (** messages offered per channel per emulated round *)
  queue_cap : int;  (** bounded send queue; overflow is shed *)
  window : int;  (** replay-window width *)
  epoch_len : int;  (** emulated rounds per key epoch *)
  grace : int;  (** rounds the previous epoch stays decodable *)
  payload : int;  (** message body bytes *)
  outsiders : int;  (** keyless nodes that snoop and forge *)
  seed : int64;  (** engine seed; also salts the epoch keys, so runs under one key differ *)
}

val make :
  key:string ->
  logical:int ->
  phys:int ->
  budget:int ->
  ?transport:transport ->
  ?ack_mode:ack_mode ->
  rounds:int ->
  ?rate:int ->
  ?queue_cap:int ->
  ?window:int ->
  ?epoch_len:int ->
  ?grace:int ->
  ?payload:int ->
  ?outsiders:int ->
  ?seed:int64 ->
  unit ->
  spec
(** Validates every field; raises [Invalid_argument] otherwise.  Defaults:
    [Acked], [Slotted], rate 1, queue_cap 8, window 32,
    epoch_len 16, grace 4, payload 16, outsiders 0, seed 1. *)

val node_count : spec -> int
(** Engine nodes the run needs: 2 per channel (Acked, Slotted), 1 per
    channel (Acked, Piggybacked) or [group] per channel (Repeat), plus
    [outsiders].  Service node [n] is member [n mod k] of channel [n / k]
    for those [k] per channel. *)

val real_rounds_per_emulated : spec -> int

type stats = {
  mutable offered : int;  (** messages the application tried to enqueue *)
  mutable delivered : int;  (** fresh in-window deliveries *)
  mutable acked : int;  (** sender-side: head retired by a valid ack *)
  mutable duplicates : int;  (** replay-window hits (lost-ack retransmits) *)
  mutable stale_epoch : int;  (** frames rejected unopened by epoch check *)
  mutable out_of_window : int;
  mutable bad_frames : int;
      (** malformed, MAC-rejected, or spliced frames (sealed for another
          channel; under Repeat, every heard copy) *)
  mutable shed : int;  (** offered messages dropped by backpressure *)
  mutable retransmissions : int;
  mutable rekeys : int;  (** epoch boundaries crossed *)
  mutable messages_done : int;  (** Repeat: heads retired *)
  mutable full_deliveries : int;  (** Repeat: heads heard by every receiver *)
  mutable forged_accepts : int;  (** authenticated frames with wrong bodies (0) *)
  mutable plaintext_leaks : int;  (** outsider decryptions that succeeded (0) *)
  mutable snooped : int;  (** sealed frames outsiders overheard *)
}

(** The service's step machine, drivable without the radio engine: the
    same step that {!run}'s nodes drive.

    An emulated round has one phase (piggybacked acks, Repeat) or two
    (slotted acks: data, then acks).  [step t ~e ~phase] judges the frames
    stored with {!hear} since the previous step, then plans this phase's
    sends.  Call it for every phase of rounds [0 .. rounds - 1] in order
    (piggybacked mode adds one flush round [rounds]), and once more at
    phase 0 of the round after the last to judge the final phase.

    Who sends and who hears: slotted member 0 sends channel [c]'s data
    frame and member 1 hears it, then member 1 sends the ack and member 0
    hears it; piggybacked node [c] sends channel [c] and hears channel
    [c lxor 1]; under Repeat the designated member sends the head on every
    hop and every other member of [c] hears it. *)
module Step : sig
  type t

  val create : spec -> t

  val step : t -> e:int -> phase:int -> unit

  val planned : t -> chan:int -> phase:int -> (int * string) option
  (** The member of [chan] transmitting in the current [phase], and its
      frame; [None] when the channel is silent. *)

  val hear : t -> node:int -> hop:int -> Radio.Frame.t option -> unit
  (** Store what service node [node] heard on its [hop]-th listen of the
      current phase ([hop] is 0 except under Repeat, [0 .. reps - 1]). *)

  val stats : t -> stats
end

type result = {
  spec : spec;
  stats : stats;
  engine : Radio.Engine.result;
  latency_hist : int array;
      (** bucket [d] counts deliveries [d] emulated rounds after enqueue
          (last bucket absorbs the tail) *)
  emulated_rounds : int;
  real_rounds_per_emulated : int;
}

val latency_percentile : result -> float -> int
(** [latency_percentile r 0.99]: delivery latency in emulated rounds. *)

val run : spec -> adversary:Radio.Adversary.t -> result
(** Run the workload on the sparse engine (channel-usage tracking on),
    inside [Parallel.run ~jobs:(Parallel.default_jobs ())]: an enclosing
    scope's budget wins, so under [Parallel.run ~jobs:1] every chunk runs
    on the calling domain.  A prepare batch below a fixed work grain is a
    single chunk, and no chunk holds more than 256 frames.  Deterministic
    in [spec]: byte-identical stats and {!render_stats} whatever the pool
    size. *)

val render_stats : result -> string
(** Canonical multi-line rendering of everything observable about the run
    — the text the bench's determinism rows hash. *)

val output_digest : result -> string
(** SHA-256 (hex) of {!render_stats}. *)
