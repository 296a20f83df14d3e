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
    nodes (fibers parked by {!idle_for} or {!listen_random} sit in a wake
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

val listen_random :
  rng:Prng.Rng.t -> bound:int -> len:int -> f:(int -> Frame.t option -> bool) -> bool
(** Listen for [len] consecutive rounds on random channels: hop j is the
    j-th [Prng.Rng.int rng bound] draw.  [f j heard] gets each hop's
    observation in round order and returns [true] to keep reading or
    [false] to stop; the result is [true] when [f] stopped the read.
    Stopping only ends the reading: the call always spends [len] rounds,
    books every hop as a listener (same stats, transcripts and delivery
    semantics as [len] {!listen} calls), and leaves [rng] as [len] draws
    would.  Use it when the channel sequence does not depend on what is
    heard (e.g. the f-AME feedback listeners' random hops).

    When nothing records per-listener identities (transcript off,
    non-observing adversary) the sparse core parks the fiber for the whole
    run: it draws the hops itself with one {!Prng.Rng.fill_int} into one
    core-owned scratch, books the listener counts ahead, and keeps the hops
    in a per-node store of 1-, 2- or 4-byte cells.  When the run ends the
    fiber resumes once and [f] reads each heard frame straight from the
    core's history ring, so the run costs no per-round resume, no per-hop
    copy, and no hop buffer in the fiber.  Otherwise the fiber listens
    round by round, and [f] is not called again once it has returned
    [false].

    [f] must not perform a round action: on the parked path every [f] call
    runs after the last round of the series, and a read of the next hop
    after [f] took a round action raises [Invalid_argument] (the ring rows
    may have been reused).  Raises [Invalid_argument] (from the engine,
    before any round is booked) unless [1 <= bound <= channels].
    [len <= 0] consumes no rounds, draws nothing and calls no [f]. *)

val current_round : unit -> int
(** The engine's round counter.  Does not consume a round. *)

(** {1:protocol Action protocol}

    The effects behind the round actions, exported so another execution
    core (the test oracle) can run the same node bodies.  Each round
    action performs exactly one of these; a core answers with an {!obs}
    when the round resolves. *)

type series_view
(** A finished parked series' hops and heard frames, read in place from the
    core's hop store and history ring by {!listen_random}.  Valid until the
    fiber's next round action. *)

type obs =
  | Received of Frame.t  (** a listener's channel carried one decodable frame *)
  | Nothing  (** silence, collision, jam, or a non-listening action *)
  | Declined
      (** the core will not run an {!EListenRandom} as one suspension: the
          fiber then draws and performs one {!EListen} per round itself *)
  | Heard of series_view
      (** the core ran an {!EListenRandom} parked: the series' rounds are
          over and the view holds each hop and what it heard *)

type _ Effect.t += ETransmit : int * Frame.t -> obs Effect.t  (** {!transmit} *)
type _ Effect.t += EListen : int -> obs Effect.t  (** {!listen} *)
type _ Effect.t += EIdle : obs Effect.t  (** {!idle} *)
type _ Effect.t += EIdleFor : int -> obs Effect.t  (** {!idle_for}, [k > 0] rounds *)
type _ Effect.t += EListenRandom : Prng.Rng.t * int * int -> obs Effect.t
(** {!listen_random} with [(rng, bound, len)], [len > 0]: the core checks
    [bound], then either draws the [len] hops from [rng] and runs them
    parked, answering [Heard] once the last round has resolved, or answers
    [Declined] at once and leaves the draws to the fiber.  Only the sparse
    core builds views; the test oracle always declines. *)
type _ Effect.t += Round : int Effect.t  (** {!current_round}; consumes no round *)

(** {1 Running} *)

type result = {
  stats : Transcript.Stats.t;
  transcript : Transcript.round_record list;  (** empty unless recording is on *)
  completed : bool;  (** false if [max_rounds] was exhausted first *)
  rounds_used : int;
  channel_usage : Transcript.Channel_usage.t;  (** per-physical-channel counters *)
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
