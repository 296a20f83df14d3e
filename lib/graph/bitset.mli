(** Flat bitsets over small-int node universes (63 bits per word).

    The storage primitive shared by {!Digraph.Dense}, the vertex-cover
    solver, and the game state.  Values are plain word arrays: the
    in-place operations ([set], [unset], [set_word]) are for code that
    owns the array (builders, solver scratch); modules exposing a bitset
    in an immutable position must use the copying operations ([add],
    [copy]) and never hand out an array they later mutate.  All iteration
    is in ascending index order — deterministic by construction. *)

type t

val bits_per_word : int

val create : int -> t
(** [create n]: all-clear set able to hold indices [0 .. n-1]. *)

val mem : t -> int -> bool
(** Total: out-of-range (including negative) indices are simply absent. *)

val set : t -> int -> unit
(** In-place; raises [Invalid_argument] out of range. *)

val unset : t -> int -> unit

val add : t -> int -> t
(** Functional insert: returns [t] itself (physically) when the index is
    already present, a copy otherwise. *)

val copy : t -> t

val count : t -> int
(** Number of set bits. *)

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Ascending index order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending index order. *)

val to_list : t -> int list
(** Sorted ascending. *)

val equal : t -> t -> bool
(** Structural equality of the word arrays (same capacity class). *)

val popcount_word : int -> int

val bit_index : int -> int
(** Index of the single set bit of the argument. *)

val word : t -> int -> int
(** Raw word access for hot loops ({!Spanner}, the VC solver). *)

val set_word : t -> int -> int -> unit

val words : t -> int
