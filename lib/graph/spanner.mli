(** The "(t+1)-leader spanner" of Section 6.

    A sparse exchange set with about n(t+1) ordered pairs: every pair with at
    least one endpoint among the t+1 leaders.  Removing any t nodes leaves at
    least one leader connected to every surviving node, which is the
    connectivity property the group-key protocol relies on. *)

val leaders : t:int -> int list
(** The t+1 leader ids: [0 .. t]. *)

val pairs : n:int -> t:int -> (int * int) list
(** All ordered pairs (v, w), v <> w, with v or w a leader; sorted. *)

val survives_removal : n:int -> t:int -> removed:int list -> bool
(** After deleting [removed] (any set of at most t nodes), is the undirected
    spanner on the remaining nodes connected?  Bitset BFS over the dense
    spanner; used by tests to validate the (t+1)-connectivity claim by
    exhaustive/sampled removal. *)
