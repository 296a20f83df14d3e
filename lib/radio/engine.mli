(** The synchronous multi-channel radio engine (Section 3 semantics).

    Executions proceed in rounds.  Per round each node transmits or listens
    on one channel (or idles); the adversary adds up to t strikes.  On each
    channel: exactly one transmitter of a decodable frame means every
    listener receives it; zero or several transmitters (or a jam) mean
    listeners receive nothing.  Nodes cannot detect collisions and cannot
    tell a spoofed frame from a real one.

    Nodes are written in direct style as coroutines over OCaml effects: the
    body calls {!transmit} / {!listen} / {!idle}, each consuming exactly one
    round, so protocol code reads like the paper's pseudocode.  The engine
    steps all fibers in node-id order, making every run a deterministic
    function of the configuration seed.

    One execution core runs every protocol ({!run_nodes}).  It is
    sparse and event-driven: per-node state lives in flat struct-of-arrays
    slots, and a round costs work proportional to the number of {e active}
    nodes (fibers parked by {!idle_for} or {!listen_random} sit in a wake
    queue until their round).  It runs on the calling domain; parallelism
    lives above it, across independent runs.  Its semantic oracle is a
    plain dense loop in the test-only [test/oracle] library, driven through
    the {{!section-protocol} action protocol} below; the equivalence suite
    checks that both produce identical stats, transcripts, channel usage
    and round counts for the same configuration.  A wake-queue bucket
    resumes in node-id order: the core merges the ascending runs that
    the resume passes which filled it left, rather than sorting it.  Each
    run adds its work (suspensions by action, resumes, parked series and
    hops, wake-queue pushes and the runs merged as buckets pop,
    active-list entries harvested, resolved and fast-forwarded rounds)
    to {!Counters}. *)

type ctx = {
  id : int;  (** this node's index in 0..n-1 *)
  rng : Prng.Rng.t;  (** private random stream (split from the master seed) *)
  cfg : Config.t;
}

(** {1 Round actions} — each call suspends the fiber for one radio round. *)

val transmit : chan:int -> Frame.t -> unit
(** Broadcast a frame on [chan] this round.  The sender learns nothing about
    success (no collision detection). *)

val listen : chan:int -> Frame.t option
(** Tune to [chan]; [Some frame] if a single transmitter was decodable,
    [None] otherwise.  A spoofed frame is indistinguishable from a real
    one. *)

val idle : unit -> unit
(** Participate in the round without transmitting or listening. *)

val idle_for : int -> unit
(** Idle for [k] consecutive rounds ([k <= 0] is a no-op).  Equivalent to
    [k] calls of {!idle}, but a single suspension: the sparse engine parks
    the fiber in its wake queue, so the idle span costs zero per-round
    work. *)

type series_view
(** A finished {!listen_random} series' hops and what each heard, read in
    place from the core's hop store and history ring with {!heard}.  Valid
    until the fiber's next round action. *)

val listen_random : rng:Prng.Rng.t -> bound:int -> wait:int -> len:int -> series_view
(** Idle for [wait] rounds, then listen for [len] consecutive rounds on
    random channels: hop j is the j-th [Prng.Rng.int rng bound] draw.  The
    call spends [wait + len] rounds in one suspension, books every hop as
    a listener (same stats, transcripts and delivery semantics as
    [idle_for wait] followed by [len] {!listen} calls), leaves [rng] as
    [len] draws would, and returns the series' view: read hop j's
    observation with {!heard}.  Use it when the channel sequence does not
    depend on what is heard (e.g. the f-AME feedback listeners' random
    hops), and fold the idle rounds before it into [wait].

    The sparse core parks the fiber for the whole span, whatever the run
    records: it draws the hops itself with one {!Prng.Rng.fill_int} into
    one core-owned scratch, books the listener counts from round
    [declare + wait] on, and keeps the hops in a per-node store of 1-, 2-
    or 4-byte cells, from which a recorded round reads the listener of a
    series that has started.  When the series ends the fiber resumes once,
    and {!heard} reads each heard frame straight from the core's history
    ring, so the span costs no per-round resume, no per-hop copy, and no
    hop buffer or closure in the fiber.

    Raises [Invalid_argument] (from the engine, before any round is
    booked) unless [1 <= bound <= channels].  [len <= 0] is
    [idle_for wait]: it draws nothing and its view has no hops.  A
    negative [wait] counts as 0. *)

val heard : series_view -> int -> Frame.t option
(** [heard v j] is what hop [j] of the series heard: [Some frame] if a
    single transmitter was decodable on its channel that round, [None]
    otherwise.  Raises [Invalid_argument] unless [0 <= j < len], and once
    the fiber has taken a round action since the series ended (the ring
    rows may have been reused).  {!current_round} is not a round action. *)

val current_round : unit -> int
(** The engine's round counter.  Does not consume a round. *)

(** {1:protocol Action protocol}

    The effects behind the round actions, exported so another execution
    core (the test oracle) can run the same node bodies.  Each round
    action performs exactly one of these; a core answers with an {!obs}
    when the round resolves. *)

type obs =
  | Received of Frame.t  (** a listener's channel carried one decodable frame *)
  | Nothing  (** silence, collision, jam, or a non-listening action *)
  | Heard of series_view
      (** an {!EListenRandom}'s rounds are over: the view holds each hop and
          what it heard *)

type _ Effect.t += ETransmit : int * Frame.t -> obs Effect.t  (** {!transmit} *)
type _ Effect.t += EListen : int -> obs Effect.t  (** {!listen} *)
type _ Effect.t += EIdle : obs Effect.t  (** {!idle} *)
type _ Effect.t += EIdleFor : int -> obs Effect.t  (** {!idle_for}, [k > 0] rounds *)
type _ Effect.t += EListenRandom : Prng.Rng.t * int * int * int -> obs Effect.t
(** {!listen_random} with [(rng, bound, wait, len)], [wait >= 0] and
    [len > 0]: the core checks [bound], draws the [len] hops from [rng],
    idles [wait] rounds, listens on hop j in the series' j-th round after
    them, and answers [Heard] once the last round has resolved. *)
type _ Effect.t += Round : int Effect.t  (** {!current_round}; consumes no round *)

val heard_view : clock:int ref -> Frame.t option array -> obs
(** [heard_view ~clock heard] is the [Heard] answer of a core that ran the
    series round by round, [heard.(j)] being hop j's frame.  The test
    oracle's seam: [clock] is that core's round counter, read now, so a
    read after a round action raises as it does in the sparse core. *)

(** {1 Running} *)

type result = {
  stats : Transcript.Stats.t;
  transcript : Transcript.round_record list;  (** empty unless recording is on *)
  completed : bool;  (** false if [max_rounds] was exhausted first *)
  rounds_used : int;
  channel_usage : Transcript.Channel_usage.t;  (** per-physical-channel counters *)
}

val run_nodes : Config.t -> adversary:Adversary.t -> (ctx -> unit) -> result
(** [run_nodes cfg ~adversary body] starts one fiber per node, each
    running [body] on its own {!ctx} (it branches on [ctx.id]), and drives
    rounds until every fiber returns.  The body closure is shared: node
    state is indexed by [ctx.id], so no n-length array of closures is
    built.  Raises [Invalid_argument] on malformed node actions (bad
    channel).
    Everything runs on the calling domain, so the result never depends on
    the [--jobs] setting of an enclosing [Parallel.run]. *)
