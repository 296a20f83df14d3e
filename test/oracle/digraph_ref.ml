(* The edge-set digraph: the plain reference that [Rgraph.Digraph.Dense]
   is checked against.  One balanced set of (source, destination) pairs,
   ordered by [Rgraph.Digraph.edge_compare]; every query is a fold or a
   filter over it. *)

module Edge_set = Set.Make (struct
  type t = Rgraph.Digraph.edge

  let compare = Rgraph.Digraph.edge_compare
end)

type t = Edge_set.t

let add_edge t e =
  Rgraph.Digraph.check e;
  Edge_set.add e t

let of_edges es = List.fold_left add_edge Edge_set.empty es

let remove_edge t e = Edge_set.remove e t

let mem_edge t e = Edge_set.mem e t

let edges t = Edge_set.elements t

let edge_count t = Edge_set.cardinal t

let vertices t =
  List.sort_uniq Int.compare (Edge_set.fold (fun (v, w) acc -> v :: w :: acc) t [])

let sources t = List.sort_uniq Int.compare (Edge_set.fold (fun (v, _) acc -> v :: acc) t [])

let has_outgoing t v = Edge_set.exists (fun (x, _) -> x = v) t

let is_cover t cover = Edge_set.for_all (fun (v, w) -> List.mem v cover || List.mem w cover) t
