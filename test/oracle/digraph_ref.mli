(** Edge-set digraphs: a plain [Set] of edges, the reference semantics of
    {!Rgraph.Digraph.Dense}.  Lists come out in ascending
    {!Rgraph.Digraph.edge_compare} order (or ascending node order). *)

type t

val of_edges : Rgraph.Digraph.edge list -> t
(** Duplicates collapse; a self-loop or negative id raises as
    {!Rgraph.Digraph.check} does. *)

val remove_edge : t -> Rgraph.Digraph.edge -> t
val mem_edge : t -> Rgraph.Digraph.edge -> bool
val edges : t -> Rgraph.Digraph.edge list
val edge_count : t -> int

val vertices : t -> int list
(** Nodes that are an endpoint of some edge. *)

val sources : t -> int list
(** Nodes with at least one outgoing edge. *)

val has_outgoing : t -> int -> bool

val is_cover : t -> int list -> bool
(** Does every edge have an endpoint in the node list? *)
