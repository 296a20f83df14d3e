(** Exhaustive minimax over the starred-edge removal game (Theorem 4).

    The greedy player of Section 5.2 is deterministic, so the only free
    agent in a play is the referee (the radio analogue: which <= t of the
    proposal channels the adversary disrupts each move).  This module
    walks the {e complete} game tree — every legal referee response at
    every reachable state — and returns the worst case exactly, instead
    of sampling referee strategies the way experiment E4 does.

    Legal responses at a state with proposal P are the subsets S of P
    with [max 1 (|P| - t) <= |S| <= |P|]: the base game (|P| = t+1) lets
    the referee concede a single item, the wider C >= 2t regimes force at
    least |P| - t items (the adversary can disrupt at most t channels).

    States are memoized on a canonical digest (universe, budget, proposal
    bounds, starred set, directed edge set) in a table that each
    [explore] call creates and drops, so the reported counters are a
    deterministic function of the instance alone, not of which instances
    the calling domain walked before. *)

type result = {
  worst_moves : int;  (** minimax move count: no referee does better *)
  states : int;  (** distinct game states expanded *)
  choices : int;  (** referee-response edges explored (DAG edges) *)
  strategies : int;  (** root-to-leaf paths = complete referee strategies *)
  violations : string list;
      (** proposal-rule or terminal-win failures anywhere in the tree;
          empty on a pass (Lemma 3: greedy stops only in won states) *)
  worst_path : string list;  (** one response sequence attaining the max *)
}

val explore : Game.State.t -> result

val strike_paths : Game.State.t -> limit:int -> (int list list list, string) Stdlib.result
(** All root-to-leaf referee strategies, each rendered as the per-move
    ascending list of {e jammed proposal positions} (the complement of
    the response; position i of a proposal is broadcast on channel i, so
    these are exactly the adversary's strike sets).  [Error] if the tree
    has more than [limit] leaves — the caller chose an instance too large
    to enumerate, which must fail loudly rather than truncate. *)

type replay = {
  replay_moves : int;
  delivered_edges : (int * int) list;  (** edges removed over the play; sorted *)
  failed_edges : (int * int) list;  (** edges of the final graph; sorted *)
  proposal_sizes : int list;  (** |P| per move, in move order *)
}

val replay : Game.State.t -> jams:int list list -> replay
(** Deterministic pure-game replay of one strike path: at move k the
    referee response is the proposal minus the positions in [jams_k]
    (missing trailing entries mean "no strike").  This is the oracle the
    f-AME engine runs are compared against, pair for pair. *)
