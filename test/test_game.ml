(* Tests for the starred-edge removal game: the proposal restrictions of
   Section 5.1, the greedy strategy of Section 5.2 (including the Lemma 3
   termination property), and the game runner. *)

module State = Game.State
module Greedy = Game.Greedy
module Referee = Game.Referee
module Runner = Game.Runner
module Dense = Rgraph.Digraph.Dense
module Vertex_cover = Rgraph.Vertex_cover
module Workload = Rgraph.Workload

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Returns the first [min_return] items: models the C >= 2t referee that
   must concede proposal_size - t items per move. *)
let stingy ~min_return =
  { Referee.name = Printf.sprintf "stingy-%d" min_return;
    choose = (fun _ proposal -> List.filteri (fun i _ -> i < max 1 min_return) proposal) }

let graph_gen =
  QCheck.Gen.(
    let* n = int_range 3 9 in
    let* density = int_range 1 3 in
    let* seed = int_range 0 100000 in
    let rng = Prng.Rng.create (Int64.of_int seed) in
    let edges = ref [] in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        if v <> w && Prng.Rng.int rng 4 < density then edges := (v, w) :: !edges
      done
    done;
    return !edges)

let arb_graph = QCheck.make ~print:QCheck.Print.(list (pair int int)) graph_gen

let ok_or_fail label = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let expect_error label = function
  | Ok () -> Alcotest.failf "%s: expected rejection" label
  | Error _ -> ()

(* A state with a starred node, built by applying a node choice. *)
let state_with_star () =
  let g = Dense.of_edges [ (0, 1); (0, 2); (3, 4); (5, 6) ] in
  let st = State.create_dense g ~t:1 in
  State.apply st [ State.Node 0 ]

(* -- proposal restrictions -- *)

let restriction_1_size () =
  let st = State.create_dense (Dense.of_edges [ (0, 1); (2, 3) ]) ~t:1 in
  expect_error "too small" (State.check_proposal st [ State.Node 0 ]);
  expect_error "too big"
    (State.check_proposal st [ State.Node 0; State.Node 2; State.Edge (0, 1) ]);
  ok_or_fail "exact size" (State.check_proposal st [ State.Node 0; State.Node 2 ])

let restriction_1_membership () =
  let st = State.create_dense (Dense.of_edges [ (0, 1) ]) ~t:1 in
  expect_error "node outside V" (State.check_proposal st [ State.Node 9; State.Node 0 ]);
  expect_error "edge outside E" (State.check_proposal st [ State.Node 0; State.Edge (1, 0) ])

let restriction_2_unique_nodes () =
  let st = State.create_dense (Dense.of_edges [ (0, 1); (2, 3) ]) ~t:1 in
  expect_error "duplicate node" (State.check_proposal st [ State.Node 0; State.Node 0 ]);
  expect_error "node inside proposed edge"
    (State.check_proposal st [ State.Node 0; State.Edge (0, 1) ]);
  expect_error "node is edge destination"
    (State.check_proposal st [ State.Node 1; State.Edge (0, 1) ])

let restriction_3_distinct_destinations () =
  let st = state_with_star () in
  (* 0 is starred; edges (0,1) and (0,2) share source 0 (allowed), but give
     them the same destination via another edge to test R3. *)
  let g = Dense.of_edges [ (0, 2); (1, 2); (3, 4); (5, 6) ] in
  let st3 = State.apply (State.create_dense g ~t:1) [ State.Node 0 ] in
  ignore st;
  expect_error "shared destination"
    (State.check_proposal st3 [ State.Edge (0, 2); State.Edge (1, 2) ])

let restriction_4_shared_source () =
  let starred = state_with_star () in
  ok_or_fail "starred source may repeat"
    (State.check_proposal starred [ State.Edge (0, 1); State.Edge (0, 2) ]);
  let unstarred = State.create_dense (Dense.of_edges [ (0, 1); (0, 2) ]) ~t:1 in
  expect_error "unstarred source may not repeat"
    (State.check_proposal unstarred [ State.Edge (0, 1); State.Edge (0, 2) ])

let apply_semantics () =
  let g = Dense.of_edges [ (0, 1); (2, 3) ] in
  let st = State.create_dense g ~t:1 in
  let st = State.apply st [ State.Node 0; State.Edge (2, 3) ] in
  check Alcotest.bool "starred" true (State.is_starred st 0);
  check Alcotest.int "edge removed" 1 (Dense.edge_count st.State.graph);
  (* Starring twice is idempotent. *)
  let st = State.apply st [ State.Node 0 ] in
  check (Alcotest.list Alcotest.int) "no duplicate star" [ 0 ] st.State.starred

(* -- greedy strategy -- *)

let p1_p2_definitions () =
  let g = Dense.of_edges [ (0, 1); (2, 3); (4, 5) ] in
  let st = State.create_dense g ~t:2 in
  check (Alcotest.list Alcotest.int) "p1 = unstarred sources" [ 0; 2; 4 ] (Greedy.p1 st);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "p2 empty initially" []
    (Greedy.p2 st);
  (* Star everything; now p1 is empty and p2 holds all edges. *)
  let st = State.apply st [ State.Node 0; State.Node 2; State.Node 4 ] in
  check (Alcotest.list Alcotest.int) "p1 empty" [] (Greedy.p1 st);
  check Alcotest.int "p2 has all edges" 3 (List.length (Greedy.p2 st))

let greedy_proposals_always_legal =
  QCheck.Test.make ~name:"greedy proposal satisfies restrictions" ~count:300 arb_graph
    (fun edges ->
      QCheck.assume (edges <> []);
      let g = Dense.of_edges edges in
      let t = 1 + (List.length edges mod 3) in
      (* Walk several moves with a stingy referee, checking each proposal. *)
      let rec walk st steps =
        steps = 0
        ||
        match Greedy.proposal st with
        | None -> true
        | Some proposal ->
          (match State.check_proposal st proposal with
           | Error _ -> false
           | Ok () ->
             let response = [ List.hd proposal ] in
             walk (State.apply st response) (steps - 1))
      in
      walk (State.create_dense g ~t) 50)

let lemma3_termination_implies_cover =
  QCheck.Test.make ~name:"greedy termination implies VC <= t (Lemma 3)" ~count:300 arb_graph
    (fun edges ->
      let g = Dense.of_edges edges in
      let t = 1 + (List.length edges mod 3) in
      let rec drive st steps =
        if steps = 0 then true
        else
          match Greedy.proposal st with
          | None -> Vertex_cover.at_most_dense st.State.graph t
          | Some proposal -> drive (State.apply st [ List.hd proposal ]) (steps - 1)
      in
      drive (State.create_dense g ~t) 200)

(* -- runner -- *)

let runner_wins_all_referees () =
  let g = Dense.of_edges (Workload.complete ~n:7) in
  List.iter
    (fun referee ->
      let o = Runner.play (State.create_dense g ~t:2) referee in
      check Alcotest.bool (referee.Referee.name ^ " wins") true o.Runner.won)
    [ Referee.generous; Referee.minimal_first; Referee.spiteful ~min_return:1;
      stingy ~min_return:2; Referee.random (Prng.Rng.create 9L) ~min_return:1 ]

let runner_move_bound =
  QCheck.Test.make ~name:"moves bounded by |E| + stars (Theorem 4)" ~count:100 arb_graph
    (fun edges ->
      QCheck.assume (List.length edges >= 2);
      let g = Dense.of_edges edges in
      let o = Runner.play (State.create_dense g ~t:1) Referee.minimal_first in
      o.Runner.moves <= Dense.edge_count g + o.Runner.stars + 1)

let runner_rejects_cheating_referee () =
  let g = Dense.of_edges (Workload.complete ~n:5) in
  let cheat =
    { Referee.name = "cheat"; choose = (fun _ _ -> [ State.Edge (97, 98) ]) }
  in
  try
    ignore (Runner.play (State.create_dense g ~t:1) cheat);
    Alcotest.fail "expected Rule_violation"
  with Runner.Rule_violation _ -> ()

let runner_rejects_empty_response () =
  let g = Dense.of_edges (Workload.complete ~n:5) in
  let empty = { Referee.name = "empty"; choose = (fun _ _ -> []) } in
  try
    ignore (Runner.play (State.create_dense g ~t:1) empty);
    Alcotest.fail "expected Rule_violation"
  with Runner.Rule_violation _ -> ()

let runner_stingy_faster_than_minimal () =
  (* The C = 2t regime: a referee forced to return t items per move
     finishes the game in about |E|/t moves. *)
  let g = Dense.of_edges (Workload.complete ~n:8) in
  let minimal =
    Runner.play (State.create_dense ~proposal_size:4 g ~t:2) Referee.minimal_first
  in
  let stingy =
    Runner.play (State.create_dense ~proposal_size:4 g ~t:2) (stingy ~min_return:2)
  in
  check Alcotest.bool "stingy-2 at most half the moves (+1)" true
    (stingy.Runner.moves <= (minimal.Runner.moves / 2) + 1)

let () =
  Alcotest.run "game"
    [ ( "restrictions",
        [ Alcotest.test_case "restriction 1: size" `Quick restriction_1_size;
          Alcotest.test_case "restriction 1: membership" `Quick restriction_1_membership;
          Alcotest.test_case "restriction 2: node uniqueness" `Quick
            restriction_2_unique_nodes;
          Alcotest.test_case "restriction 3: destinations" `Quick
            restriction_3_distinct_destinations;
          Alcotest.test_case "restriction 4: shared sources" `Quick
            restriction_4_shared_source;
          Alcotest.test_case "apply semantics" `Quick apply_semantics ] );
      ( "greedy",
        [ Alcotest.test_case "P1/P2 definitions" `Quick p1_p2_definitions;
          qcheck greedy_proposals_always_legal;
          qcheck lemma3_termination_implies_cover ] );
      ( "runner",
        [ Alcotest.test_case "wins against all referees" `Quick runner_wins_all_referees;
          Alcotest.test_case "cheating referee detected" `Quick
            runner_rejects_cheating_referee;
          Alcotest.test_case "empty response detected" `Quick runner_rejects_empty_response;
          Alcotest.test_case "larger proposals finish faster" `Quick
            runner_stingy_faster_than_minimal;
          qcheck runner_move_bound ] ) ]
