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

    One execution core runs every protocol ({!run} / {!run_nodes}).  It is
    sparse and event-driven: per-node state lives in flat struct-of-arrays
    slots, and a round costs work proportional to the number of {e active}
    nodes (fibers parked by {!idle_for} or {!listen_series} sit in a wake
    queue until their round).  It runs on the calling domain; parallelism
    lives above it, across independent runs.  Its semantic oracle is a
    plain dense loop in the test-only [test/oracle] library, driven through
    the {{!section-protocol} action protocol} below; the equivalence suite
    checks that both produce identical stats, transcripts, channel usage
    and round counts for the same configuration. *)

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

val listen_series : chans:int array -> f:(int -> Frame.t option -> unit) -> unit
(** Listen for [Array.length chans] consecutive rounds, on [chans.(j)] in
    the j-th round, calling [f j heard] with each round's observation, in
    round order.  Observationally identical to
    [Array.iteri (fun j c -> f j (listen ~chan:c)) chans] — same stats,
    transcripts, and delivery semantics.  When nothing records
    per-listener identities (transcript off, non-observing adversary) the
    sparse core parks the fiber for the whole run: its listener counts are
    booked ahead, and when the run ends the fiber resumes once and [f]
    reads each heard frame straight from the core's history ring, so the
    run costs no per-round resume and copies nothing.  Otherwise the
    series runs as exactly that sequence of {!listen} calls, [f] following
    each.  Use it when the channel sequence does not depend on what is
    heard (e.g. the f-AME feedback listeners' random hops).

    [f] must not modify [chans] and must not perform a round action: on
    the parked path every [f] call runs after the last round of the
    series, and a read of the next hop after [f] took a round action
    raises [Invalid_argument] (the ring rows may have been reused).
    Zero-length [chans] consumes no rounds and calls no [f]. *)

val current_round : unit -> int
(** The engine's round counter.  Does not consume a round. *)

(** {1:protocol Action protocol}

    The effects behind the round actions, exported so another execution
    core (the test oracle) can run the same node bodies.  Each round
    action performs exactly one of these; a core answers with an {!obs}
    when the round resolves. *)

type series_view
(** A finished parked series' heard frames, read in place from the core's
    history ring by {!listen_series}.  Valid until the fiber's next round
    action. *)

type obs =
  | Received of Frame.t  (** a listener's channel carried one decodable frame *)
  | Nothing  (** silence, collision, jam, or a non-listening action *)
  | Declined
      (** the core will not run an {!EListenSeq} as one suspension: the
          fiber then performs one {!EListen} per round itself *)
  | Heard of series_view
      (** the core ran an {!EListenSeq} parked: the series' rounds are over
          and the view holds what each hop heard *)

type _ Effect.t += ETransmit : int * Frame.t -> obs Effect.t  (** {!transmit} *)
type _ Effect.t += EListen : int -> obs Effect.t  (** {!listen} *)
type _ Effect.t += EIdle : obs Effect.t  (** {!idle} *)
type _ Effect.t += EIdleFor : int -> obs Effect.t  (** {!idle_for}, [k > 0] rounds *)
type _ Effect.t += EListenSeq : int array -> obs Effect.t
(** {!listen_series} with a nonempty channel run: the core either runs it
    parked and answers [Heard] once its last round has resolved, or
    answers [Declined] at once.  Only the sparse core builds views; the
    test oracle always declines. *)
type _ Effect.t += Round : int Effect.t  (** {!current_round}; consumes no round *)

(** {1 Running} *)

type result = {
  stats : Transcript.Stats.t;
  transcript : Transcript.round_record list;  (** empty unless recording is on *)
  completed : bool;  (** false if [max_rounds] was exhausted first *)
  rounds_used : int;
  channel_usage : Transcript.Channel_usage.t option;
      (** per-physical-channel counters; [Some] iff [Config.track_channels] *)
}

val run : Config.t -> adversary:Adversary.t -> (ctx -> unit) array -> result
(** [run cfg ~adversary nodes] starts one fiber per node (the array must
    have length [cfg.n]) and drives rounds until every fiber returns.
    Raises [Invalid_argument] on malformed node actions (bad channel).
    Everything runs on the calling domain, so the result never depends on
    the [--jobs] setting of an enclosing [Parallel.run]. *)

val run_nodes : Config.t -> adversary:Adversary.t -> (ctx -> unit) -> result
(** Convenience: the same body for every node (it can branch on [ctx.id]).
    The body closure is shared — node state is indexed by [ctx.id], so no
    n-length array of identical closures is built. *)
