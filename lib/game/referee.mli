(** Referee strategies for the starred-edge removal game.

    The referee must answer every proposal with a non-empty subset; in the
    base game it may return as little as one item (the radio analogue: the
    adversary disrupts t of the t+1 channels).  In the C >= 2t variants the
    referee must return at least [proposal_size - t] items. *)

type t = {
  name : string;
  choose : State.t -> State.item list -> State.item list;
      (** [choose state proposal] returns a non-empty subset. *)
}

val generous : t
(** Returns the whole proposal (an interference-free network). *)

val minimal_first : t
(** Returns exactly the smallest item: the deterministic worst case for the
    move-count bound of Theorem 4. *)

val random : Prng.Rng.t -> min_return:int -> t
(** Returns a uniformly random subset of size exactly [min_return]. *)

val spiteful : min_return:int -> t
(** Prefers returning nodes (stars) over edges, delaying edge removal as
    long as the rules allow: the strategy that maximizes total moves under
    greedy play. *)
