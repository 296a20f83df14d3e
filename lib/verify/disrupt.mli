(** Brute-force t-disruptability oracle (Theorem 2).

    A pair set is within the paper's disruption threshold when its failure
    graph admits a vertex cover of size <= t.  The optimized kernel
    ({!Rgraph.Vertex_cover}: FPT branch-and-bound on bitset adjacency)
    decides this at the end of every game play and every f-AME run — so
    this module re-decides it the dumbest possible way, by enumerating
    {e all} node subsets of size <= t, and demands bit-for-bit agreement
    across {e every} graph on a bounded node count.  An optimization that
    ever disagrees with the subset walk fails the certificate suite. *)

val brute_at_most : Rgraph.Digraph.Dense.t -> int -> bool * int
(** [brute_at_most g k] decides "vertex cover of size <= k" by testing
    node subsets in ascending bitmask order; also returns the number of
    subsets tested (deterministic: the scan stops at the first cover). *)

val brute_minimum_size : Rgraph.Digraph.Dense.t -> int
(** Exact minimum vertex cover size by full subset scan. *)

type result = {
  graphs : int;  (** graphs enumerated *)
  queries : int;  (** kernel decisions checked (graphs x budgets, + minima) *)
  subsets : int;  (** node subsets tested by the brute-force side *)
  violations : string list;
  worst_cover : int;  (** largest minimum cover seen *)
  worst_graph : string;  (** a graph attaining it, as an edge list *)
}

val check : max_nodes:int -> budgets:int list -> jobs:int -> result
(** Enumerates every undirected graph on [n <= max_nodes] labeled nodes
    (all 2^(n(n-1)/2) edge subsets for each n), and for each one checks
    that [Vertex_cover.at_most_dense] matches {!brute_at_most} for every
    budget, that [minimum_size_dense] matches {!brute_minimum_size}, and
    that [minimum_dense] really is a cover of that size.  Graph chunks
    are sharded across the domain pool and merged in enumeration order,
    so the result is identical for every [jobs]. *)
