type item = Node of int | Edge of (int * int)

type t = {
  graph : Rgraph.Digraph.Dense.t;
  starred : int list;  (* sorted; the external view of starred_bits *)
  starred_bits : Rgraph.Bitset.t;
  budget : int;
  min_proposal : int;
  max_proposal : int;
  universe : Rgraph.Bitset.t;  (* V: the node set fixed at game creation *)
}

let create_dense ?proposal_size ?min_proposal graph ~t =
  let max_proposal = Option.value proposal_size ~default:(t + 1) in
  let min_proposal = Option.value min_proposal ~default:(min (t + 1) max_proposal) in
  if min_proposal < 1 || max_proposal < min_proposal then
    invalid_arg "State.create_dense: need 1 <= min_proposal <= max_proposal";
  let n = Rgraph.Digraph.Dense.universe graph in
  let universe = Rgraph.Bitset.create n in
  List.iter (Rgraph.Bitset.set universe) (Rgraph.Digraph.Dense.vertices graph);
  { graph; starred = []; starred_bits = Rgraph.Bitset.create n; budget = t;
    min_proposal; max_proposal; universe }

let is_starred t v = Rgraph.Bitset.mem t.starred_bits v

let item_compare a b =
  match (a, b) with
  | Node x, Node y -> Int.compare x y
  | Node _, Edge _ -> -1
  | Edge _, Node _ -> 1
  | Edge e1, Edge e2 -> Rgraph.Digraph.edge_compare e1 e2

let pp_item fmt = function
  | Node v -> Format.fprintf fmt "node %d" v
  | Edge (v, w) -> Format.fprintf fmt "edge (%d,%d)" v w

let check_proposal t items =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let len = List.length items in
  if len < t.min_proposal || len > t.max_proposal then
    fail "restriction 1: proposal has %d items, want %d..%d" len t.min_proposal t.max_proposal
  else begin
    let nodes = List.filter_map (function Node v -> Some v | Edge _ -> None) items in
    let edges = List.filter_map (function Edge e -> Some e | Node _ -> None) items in
    let bad_node = List.find_opt (fun v -> not (Rgraph.Bitset.mem t.universe v)) nodes in
    let bad_edge =
      List.find_opt (fun e -> not (Rgraph.Digraph.Dense.mem_edge t.graph e)) edges
    in
    match (bad_node, bad_edge) with
    | Some v, _ -> fail "restriction 1: node %d not in V" v
    | _, Some (v, w) -> fail "restriction 1: edge (%d,%d) not in E" v w
    | None, None ->
      let sorted_nodes = List.sort Int.compare nodes in
      let rec has_dup = function
        | a :: (b :: _ as rest) -> a = b || has_dup rest
        | _ -> false
      in
      if has_dup sorted_nodes then fail "restriction 2: duplicate node"
      else if
        List.exists
          (fun v -> List.exists (fun (s, d) -> s = v || d = v) edges)
          nodes
      then fail "restriction 2: a proposed node appears in a proposed edge"
      else begin
        let dests = List.sort Int.compare (List.map snd edges) in
        if has_dup dests then fail "restriction 3: two edges share a destination"
        else begin
          let shared_unstarred_source =
            let sources = List.sort Int.compare (List.map fst edges) in
            let rec find = function
              | a :: (b :: _ as rest) ->
                if a = b && not (is_starred t a) then Some a else find rest
              | _ -> None
            in
            find sources
          in
          match shared_unstarred_source with
          | Some v -> fail "restriction 4: edges share unstarred source %d" v
          | None -> Ok ()
        end
      end
  end

(* [starred] is kept sorted (see [apply]), so insertion preserves exactly
   what [List.sort compare (v :: starred)] used to produce. *)
let rec insert_sorted (v : int) = function
  | [] -> [ v ]
  | x :: tl as l -> if v < x then v :: l else if v = x then l else x :: insert_sorted v tl

let apply t chosen =
  if chosen = [] then invalid_arg "State.apply: referee response must be non-empty";
  (* Accumulate all updates, then copy the record once. *)
  let starred = ref t.starred and bits = ref t.starred_bits and graph = ref t.graph in
  List.iter
    (fun item ->
      match item with
      | Node v ->
        starred := insert_sorted v !starred;
        bits := Rgraph.Bitset.add !bits v
      | Edge e -> graph := Rgraph.Digraph.Dense.remove_edge !graph e)
    chosen;
  if !starred == t.starred && !graph == t.graph then t
  else { t with starred = !starred; starred_bits = !bits; graph = !graph }

let won t = Rgraph.Vertex_cover.at_most_dense t.graph t.budget
