(** State and rules of the (G, t)-starred-edge removal game (Section 5.1).

    The player proposes exactly [proposal_size] items (nodes of V or edges of
    E) subject to Restrictions 1-4; the referee answers with a non-empty
    subset; chosen nodes join the starred set S, chosen edges leave E.  The
    game is won when E's remaining graph has a vertex cover of size <= t.

    [proposal_size] is t+1 in the base game; the C >= 2t optimization of
    Section 5.5 plays the same game with larger proposals and a referee
    forced to return at least [proposal_size - t] items.

    The graph is a bitset {!Rgraph.Digraph.Dense}: membership tests during
    proposal validation are O(1), the win check hits the memoized
    vertex-cover solver, and [apply] copies only the two adjacency rows an
    edge removal touches. *)

type item = Node of int | Edge of (int * int)

type t = private {
  graph : Rgraph.Digraph.Dense.t;
  starred : int list;  (** sorted *)
  starred_bits : Rgraph.Bitset.t;  (** same set as [starred], O(1) member *)
  budget : int;  (** the game's t *)
  min_proposal : int;  (** smallest legal proposal; t+1 in every regime *)
  max_proposal : int;  (** largest legal proposal; t+1 in the base game,
                           the number of used channels in the wider regimes *)
  universe : Rgraph.Bitset.t;  (** V, fixed at game creation *)
}

val create_dense :
  ?proposal_size:int -> ?min_proposal:int -> Rgraph.Digraph.Dense.t -> t:int -> t
(** [create_dense g ~t] starts a game on [g].  [proposal_size] (the
    maximum) defaults to t+1, as does [min_proposal]; the base game of
    Section 5.1 therefore demands exactly t+1 items.  The C >= 2t regimes
    of Section 5.5 raise the maximum to the used channel count while
    keeping the minimum at t+1, so that a tail with fewer than max-size
    proposals can still make progress (any proposal larger than t beats
    the adversary's budget).  V is the set of endpoints of [g]'s edges. *)

val is_starred : t -> int -> bool
(** O(1). *)

val check_proposal : t -> item list -> (unit, string) result
(** Validates Restrictions 1-4:
    (1) between [min_proposal] and [max_proposal] items, nodes in V /
        edges in E;
    (2) proposed nodes appear in no proposed edge and are distinct from
        each other;
    (3) no two edges share a destination;
    (4) two edges share a source only if that source is starred. *)

val apply : t -> item list -> t
(** Apply a referee response: star the chosen nodes, delete the chosen
    edges.  The response must be a subset of a checked proposal (not
    re-validated here). *)

val won : t -> bool
(** Vertex cover of the remaining graph is at most [budget] (memoized). *)

val item_compare : item -> item -> int
(** Total order used for deterministic proposal construction. *)

val pp_item : Format.formatter -> item -> unit
