(** Immutable directed graphs over integer node ids.

    This is the shared representation for the AME exchange set E, the
    starred-edge-removal game graph, and the disruption graph.  Nodes are
    identified by small non-negative integers (process indices).

    The library has one representation, {!Dense}: flat bitset adjacency
    over an explicit node universe, used by the game kernel, f-AME, the
    vertex-cover solver and the verifier.  A plain edge-set reference lives
    in the test suite's oracle library, and a QCheck equivalence suite
    checks [Dense] against it operation for operation. *)

type edge = int * int
(** Ordered pair (source, destination). *)

val edge_compare : edge -> edge -> int
(** Monomorphic lexicographic order (source, then destination): the
    blessed comparator for sorting edge lists in protocol code. *)

val check : edge -> unit
(** Rejects a self-loop ([Invalid_argument "Digraph: self-loop"]) or a
    negative endpoint ([Invalid_argument "Digraph: negative node id"]). *)

(** Flat bitset adjacency over a fixed node universe [0..n-1].

    Rows are {!Bitset.t} per node (out- and in-adjacency), so membership
    is O(1), degree is a popcount, and neighborhood scans are word-wide.
    Values are immutable: [remove_edge] copies the two affected rows and
    the row spines, sharing everything else, which keeps per-game-move
    updates allocation-light.  All iteration is in
    ascending (source, destination) order, so every deterministic
    transcript sees edges in {!edge_compare} order. *)
module Dense : sig
  type t

  val universe : t -> int
  (** The universe size [n] fixed at creation. *)

  val of_edges : ?n:int -> edge list -> t
  (** Universe defaults to [1 + max endpoint] (0 for the empty list).
      Duplicates collapse; self-loops, negative ids, and ids outside an
      explicit universe raise [Invalid_argument]. *)

  val remove_edge : t -> edge -> t
  (** Physically returns [t] when the edge is absent (callers rely on
      [==] to detect no-ops). *)

  val mem_edge : t -> edge -> bool

  val edges : t -> edge list

  val iter_edges : (edge -> unit) -> t -> unit
  (** Ascending lexicographic order, no intermediate list. *)

  val edge_count : t -> int

  val vertices : t -> int list

  val vertex_count : t -> int

  val sources : t -> int list

  val has_outgoing : t -> int -> bool

  val out_row : t -> int -> Bitset.t
  (** The successor bitset of a node — the live row, not a copy: callers
      must treat it as read-only.  Raises on out-of-range ids. *)

  val in_row : t -> int -> Bitset.t

  val equal : t -> t -> bool
  (** Same edge set (universe capacities may differ). *)
end
