type outcome = {
  moves : int;
  stars : int;
  edges_removed : int;
  final : State.t;
  won : bool;
}

exception Rule_violation of string

let subset_of response proposal =
  List.for_all
    (fun item -> List.exists (fun p -> State.item_compare item p = 0) proposal)
    response

let play ?max_moves st (referee : Referee.t) =
  let initial_edges = Rgraph.Digraph.Dense.edge_count st.State.graph in
  let limit =
    Option.value max_moves
      ~default:
        ((10 * initial_edges) + (10 * Rgraph.Digraph.Dense.vertex_count st.State.graph) + 10)
  in
  let rec loop st moves =
    if moves > limit then
      raise (Rule_violation "game exceeded move limit: non-termination bug");
    match Greedy.proposal st with
    | None -> (st, moves)
    | Some proposal ->
      (match State.check_proposal st proposal with
       | Error msg -> raise (Rule_violation ("player: " ^ msg))
       | Ok () ->
         let response = referee.Referee.choose st proposal in
         if response = [] then raise (Rule_violation "referee: empty response");
         if not (subset_of response proposal) then
           raise (Rule_violation "referee: response not a subset of the proposal");
         loop (State.apply st response) (moves + 1))
  in
  let final, moves = loop st 0 in
  { moves;
    stars = List.length final.State.starred;
    edges_removed = initial_edges - Rgraph.Digraph.Dense.edge_count final.State.graph;
    final;
    won = State.won final }
