(** f-AME: fast Authenticated Message Exchange (Section 5.4).

    A distributed simulation of the (G, t)-starred-edge removal game over
    the radio engine.  Each game move costs one message-transmission round
    plus one communication-feedback invocation; greedy play plus the graph
    equivalence invariant give t-disruptability in O(|E| t^2 log n) rounds
    when C = t+1, and O(|E| log n) when C = 2t (Section 5.5, case 1) — the
    same code runs both regimes, with proposal size = channels used.  The
    same move driver also plays the direct-exchange baseline
    ({!constructor-Direct}), which only changes where proposals come from.

    Every node simulates the referee, and nodes in the same game state
    compute the same proposal and schedule (Invariant 1).  The simulator
    computes each such referee step once per distinct game state and the
    fibers in that state share it; a node whose feedback output D differs
    moves to a state of its own, so a desynchronization still shows.
    Only each node's own part of a move (its role, its radio actions,
    its feedback and its known vectors) is computed per node.

    Guarantees measured by the experiments (Definition 1):
    - authentication: destinations only ever output genuinely-sent payloads;
    - sender awareness: each source learns exactly which of its messages
      were delivered;
    - t-disruptability: the failed-pair graph has vertex cover <= t.

    All of these hold with high probability; the runner reports the
    low-probability desynchronization events explicitly ({!field-diverged}). *)

type outcome = {
  engine : Radio.Engine.result;
  delivered : ((int * int) * string) list;
      (** pairs whose destination output a message, with that payload;
          sorted *)
  confirmed : (int * int) list;
      (** pairs whose source believes the exchange succeeded (sender
          awareness); sorted *)
  failed : (int * int) list;  (** pairs that output fail; sorted *)
  disruption_vc : int option;
      (** exact minimum vertex cover of the failed-pair graph, when small
          enough to decide (<= 64 failed pairs) *)
  diverged : bool;
      (** true if any whp event failed and the nodes' game states
          desynchronized *)
  moves : int;  (** game moves simulated *)
}

type play =
  | Game
      (** the starred-edge removal game with greedy proposals: f-AME,
          t-disruptable (default) *)
  | Direct
      (** the direct-exchange baseline of Section 5, without surrogates:
          each move proposes a greedy node-disjoint batch of at most
          [channels_used] undelivered pairs, in ascending order, so every
          message is received from its own source.  The run stops once
          the batch has t or fewer edges, since the adversary could then
          jam every move.  Only 2t-disruptable: t disjoint triangles
          strand a vertex cover of 2t (Experiment E12). *)

type feedback_mode =
  | Sequential
      (** Figure 1's per-channel feedback: O(t^2 log n) per move at C = t+1,
          O(t log n) at C = 2t. *)
  | Tree
      (** Section 5.5 case 2 (C >= 2t^2): hypercube merge of witness
          knowledge, O(log C' log n) per move.  Requires [channels_used] to
          be a power of two with (channels_used / 2) * t <= C. *)

type corruption =
  | Forge_as_surrogate  (** forge relayed vectors only *)
  | Lie_as_witness  (** invert feedback flags only *)
  | Full  (** both (default) *)

val run :
  ?ame_params:Params.t ->
  ?channels_used:int ->
  ?play:play ->
  ?feedback_mode:feedback_mode ->
  ?vector_for:(int -> (int * string) list) ->
  ?corrupted:int list ->
  ?corruption:corruption ->
  cfg:Radio.Config.t ->
  pairs:(int * int) list ->
  messages:(int * int -> string) ->
  adversary:(Oracle.t -> Radio.Adversary.t) ->
  unit ->
  outcome
(** [run ~cfg ~pairs ~messages ~adversary ()] executes f-AME for the
    exchange set [pairs], where [messages (v, w)] is m_v,w.

    [channels_used] (default [cfg.channels]) is the game's proposal size;
    set it below [cfg.channels] to reproduce the larger-C regimes.
    [play] (default [Game]) picks where each move's proposal comes from;
    the rest of a move is the same code for both.
    [vector_for] overrides the vector payload a node broadcasts for an owner
    (the Section 5.6 optimization passes a constant-size digest); entries
    keyed [-1] are delivered to any destination.  [adversary] receives the
    schedule oracle so protocol-aware attacks can be expressed.

    [corrupted] models the Byzantine-corruption question of Section 8: the
    listed nodes follow the schedule (so honest nodes cannot detect them)
    but (a) forge the vector whenever they broadcast {e as surrogates} for
    another owner, and (b) invert their flag when serving {e as feedback
    witnesses}.  Attack (a) breaks f-AME's authentication — exactly why the
    paper's Byzantine sketch eliminates surrogates (see
    {!constructor-Direct}, immune because every message is received from
    its own source); attack (b) makes witnesses of one channel contradict
    each other, so listeners can disagree on the referee's response — the
    agreement failure behind the paper leaving Byzantine t-disruptability
    open.  Experiment E13 measures both.

    Raises [Invalid_argument] if [cfg.n] is too small for the witness
    schedule (see {!Params.nodes_required}). *)
