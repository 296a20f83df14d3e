(** Generators for AME exchange sets E (ordered pairs of distinct nodes).

    These are the workloads the experiments sweep: disjoint pairs (the
    lower-bound construction of Theorem 2), complete graphs (the
    triangle-adversary construction of Section 5), stars, leader spanners,
    and random pair sets. *)

val disjoint_pairs : n:int -> count:int -> (int * int) list
(** [count] pairwise node-disjoint pairs (i, i + count): the workload of
    Theorem 2's proof.  Requires [2 * count <= n]. *)

val complete : n:int -> (int * int) list
(** Every ordered pair of distinct nodes in [0, n). *)

val complete_on : int list -> (int * int) list
(** Every ordered pair of distinct nodes from the given list. *)

val star : n:int -> hub:int -> (int * int) list
(** Hub sends to every other node. *)

val random_pairs : Prng.Rng.t -> n:int -> count:int -> (int * int) list
(** [count] distinct ordered pairs drawn uniformly. Requires
    [count <= n * (n-1)]. *)
