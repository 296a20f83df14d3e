(** Exact minimum vertex cover on the undirected view of a digraph.

    Two exact searches in the paper reduce to it: the referee's win
    condition ([Game.State.won], Theorem 4's removal game) and the f-AME
    t-disruptability check (Theorem 2) both ask "does the failure graph
    admit a vertex cover of size <= budget?".  A game play or an f-AME run
    asks once, at its end, and the verifier once per enumerated instance
    or terminal position, so every query solves directly: there is no
    memo.

    {2 Algorithm and complexity contract}

    The solver is a kernelized FPT branch-and-bound:

    - {b kernelization} (per search node, O(n·w) with w = words per
      bitset row): vertices of degree > k are forced into the cover;
      degree-1 vertices are folded by taking their unique neighbor;
      repeated to fixpoint;
    - {b pruning}: a node is abandoned when [m > k * max_degree]
      (k vertices cover at most [k * max_degree] edges) or when a greedy
      maximal matching exceeds k (each matched edge needs its own cover
      vertex);
    - {b branching} on a maximum-degree vertex v: either v joins the
      cover (k-1 left) or all of N(v) does (k - deg v left), giving the
      textbook O(1.47^k · poly(n)) bound, far below it in practice on the
      sparse failure graphs the game produces.

    [at_most_dense g k] therefore runs in O(1.47^k · n·w) worst case and
    O(n·w) when the [m > k * max_degree] early-exit fires — the common
    case for over-budget dense rounds.  [minimum_dense] iteratively deepens
    k starting from the matching lower bound, so it never explores budgets
    below the provable optimum. *)

val at_most_dense : Digraph.Dense.t -> int -> bool
(** [at_most_dense g k]: does [g] (viewed undirected) have a vertex cover
    of size at most [k]?  Used by the game kernel's win check. *)

val minimum_dense : Digraph.Dense.t -> int list
(** A minimum vertex cover, sorted ascending.  Deterministic: equal
    graphs always yield the identical cover. *)

val minimum_size_dense : Digraph.Dense.t -> int
