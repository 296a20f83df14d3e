(* Tests for lib/verify: the exhaustive small-model theorem verifier.

   - QCheck agreement between the brute-force disruptability oracle and
     the memoized bitset kernel on random graphs up to 6 nodes;
   - unit tests for the minimax game-tree walker and its replay oracle;
   - jobs-parity: every check merges identically for any worker count;
   - the pinned-certificate regression: the quick tier's radio-verify/v1
     document must match the checked-in fixture field for field;
   - radio_verify's exit codes: CLI misuse exits 124, before any check
     runs, so CI never reads it as a failed certificate (exit 1). *)

module Json = Experiments.Json

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* -- brute force vs kernel (Theorem 2 machinery) -- *)

let small_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* density = int_range 0 4 in
    let* seed = int_range 0 1_000_000 in
    let rng = Prng.Rng.create (Int64.of_int seed) in
    let edges = ref [] in
    for v = 0 to n - 1 do
      for w = v + 1 to n - 1 do
        if Prng.Rng.int rng 5 < density then edges := (v, w) :: !edges
      done
    done;
    return (n, !edges))

let arb_small_graph =
  QCheck.make ~print:QCheck.Print.(pair int (list (pair int int))) small_graph_gen

let brute_agrees_at_most =
  QCheck.Test.make ~name:"brute_at_most agrees with at_most_dense (n <= 6)" ~count:200
    arb_small_graph (fun (n, edges) ->
      let g = Rgraph.Digraph.Dense.of_edges ~n edges in
      List.for_all
        (fun t ->
          let brute, _tested = Verify.Disrupt.brute_at_most g t in
          Bool.equal brute (Rgraph.Vertex_cover.at_most_dense g t))
        [ 0; 1; 2; 3 ])

let brute_agrees_minimum =
  QCheck.Test.make ~name:"brute_minimum_size agrees with minimum_size_dense (n <= 6)"
    ~count:200 arb_small_graph (fun (n, edges) ->
      let g = Rgraph.Digraph.Dense.of_edges ~n edges in
      Verify.Disrupt.brute_minimum_size g = Rgraph.Vertex_cover.minimum_size_dense g)

(* -- game-tree walker -- *)

let two_edge_root ~t =
  Game.State.create_dense ~proposal_size:(t + 1) ~min_proposal:(t + 1)
    (Rgraph.Digraph.Dense.of_edges [ (0, 1); (2, 3) ])
    ~t

let explore_two_disjoint_edges () =
  let r = Verify.Game_tree.explore (two_edge_root ~t:1) in
  check (Alcotest.list Alcotest.string) "no violations" [] r.Verify.Game_tree.violations;
  if r.Verify.Game_tree.worst_moves > 3 * 2 then
    Alcotest.failf "worst_moves %d above 3|E|=6" r.Verify.Game_tree.worst_moves;
  if r.Verify.Game_tree.worst_moves < 2 then
    Alcotest.failf "worst_moves %d: two disjoint edges need two moves at t=1"
      r.Verify.Game_tree.worst_moves;
  if r.Verify.Game_tree.states < 2 then Alcotest.fail "expected more than one state";
  check Alcotest.int "worst path length = worst moves"
    r.Verify.Game_tree.worst_moves
    (List.length r.Verify.Game_tree.worst_path)

let strike_paths_count_matches_strategies () =
  let root = two_edge_root ~t:1 in
  let r = Verify.Game_tree.explore root in
  match Verify.Game_tree.strike_paths root ~limit:10_000 with
  | Error msg -> Alcotest.fail msg
  | Ok paths ->
    check Alcotest.int "leaf count" r.Verify.Game_tree.strategies (List.length paths)

let strike_paths_limit_fails_loudly () =
  match Verify.Game_tree.strike_paths (two_edge_root ~t:1) ~limit:1 with
  | Error _ -> ()
  | Ok paths -> Alcotest.failf "expected Error, got %d paths" (List.length paths)

let replay_unjammed_delivers_everything () =
  let r = Verify.Game_tree.replay (two_edge_root ~t:1) ~jams:[] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "all edges delivered" [ (0, 1); (2, 3) ] r.Verify.Game_tree.delivered_edges;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "nothing failed" []
    r.Verify.Game_tree.failed_edges;
  (* Chosen edges star nodes that later moves must clear, so even the
     unjammed play takes more than the single removal move. *)
  if r.Verify.Game_tree.replay_moves < 1 || r.Verify.Game_tree.replay_moves > 6 then
    Alcotest.failf "replay_moves %d outside [1, 3|E|=6]" r.Verify.Game_tree.replay_moves

(* -- jobs parity: merged results are identical for every worker count -- *)

let disrupt_parity_across_jobs () =
  let run jobs = Verify.Disrupt.check ~max_nodes:4 ~budgets:[ 0; 1; 2 ] ~jobs in
  let a = run 1 and b = run 3 in
  check Alcotest.int "graphs" a.Verify.Disrupt.graphs b.Verify.Disrupt.graphs;
  check Alcotest.int "queries" a.Verify.Disrupt.queries b.Verify.Disrupt.queries;
  check Alcotest.int "subsets" a.Verify.Disrupt.subsets b.Verify.Disrupt.subsets;
  check Alcotest.string "worst graph" a.Verify.Disrupt.worst_graph
    b.Verify.Disrupt.worst_graph;
  check (Alcotest.list Alcotest.string) "violations" a.Verify.Disrupt.violations
    b.Verify.Disrupt.violations

let fame_parity_across_jobs () =
  let regime =
    { Verify.Fame_check.name = "parity-t1-C2"; budget = 1; channels = 2; channels_used = 2;
      mode = Ame.Fame.Sequential; pairs = [ (0, 1); (2, 3) ]; jam_feedback = false;
      seed = 77L }
  in
  let run jobs = Verify.Fame_check.check regime ~path_limit:10_000 ~jobs in
  let a = run 1 and b = run 4 in
  check Alcotest.int "strategies" a.Verify.Fame_check.strategies
    b.Verify.Fame_check.strategies;
  check Alcotest.int "runs" a.Verify.Fame_check.runs b.Verify.Fame_check.runs;
  check Alcotest.int "engine rounds" a.Verify.Fame_check.engine_rounds
    b.Verify.Fame_check.engine_rounds;
  check Alcotest.int "worst rounds" a.Verify.Fame_check.worst_rounds
    b.Verify.Fame_check.worst_rounds;
  check Alcotest.string "worst path" a.Verify.Fame_check.worst_path
    b.Verify.Fame_check.worst_path;
  check (Alcotest.list Alcotest.string) "violations" a.Verify.Fame_check.violations
    b.Verify.Fame_check.violations

(* Every strike strategy completes and none beats the replay oracle: the
   exhaustive f-AME check itself, on its smallest regime. *)
let fame_exhaustive_smallest_regime () =
  let regime =
    { Verify.Fame_check.name = "unit-t1-C2"; budget = 1; channels = 2; channels_used = 2;
      mode = Ame.Fame.Sequential; pairs = [ (0, 1); (2, 3) ]; jam_feedback = false;
      seed = 11L }
  in
  let r = Verify.Fame_check.check regime ~path_limit:10_000 ~jobs:1 in
  check (Alcotest.list Alcotest.string) "no violations" [] r.Verify.Fame_check.violations;
  if r.Verify.Fame_check.runs < 2 then
    Alcotest.failf "expected several strike strategies, got %d" r.Verify.Fame_check.runs;
  check Alcotest.int "one engine run per strategy" r.Verify.Fame_check.strategies
    r.Verify.Fame_check.runs

(* -- pinned certificate regression -- *)

(* Structural diff with a path, so a drift names the exact field. *)
let rec json_diff path a b =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
    if List.length xs <> List.length ys || List.exists2 (fun (k, _) (k', _) -> k <> k') xs ys
    then Some (Printf.sprintf "%s: object keys differ" path)
    else
      List.fold_left2
        (fun acc (k, x) (_, y) ->
          match acc with Some _ -> acc | None -> json_diff (path ^ "." ^ k) x y)
        None xs ys
  | Json.List xs, Json.List ys ->
    if List.length xs <> List.length ys then
      Some (Printf.sprintf "%s: list length %d vs %d" path (List.length xs) (List.length ys))
    else
      List.fold_left2
        (fun (i, acc) x y ->
          match acc with
          | Some _ -> (i + 1, acc)
          | None -> (i + 1, json_diff (Printf.sprintf "%s[%d]" path i) x y))
        (0, None) xs ys
      |> snd
  | a, b ->
    if a = b then None
    else Some (Printf.sprintf "%s: %s vs %s" path (Json.to_string a) (Json.to_string b))

let pinned_quick_certificates () =
  let fixture_path = "fixtures/verify-quick.json" in
  let fixture =
    match Json.of_string (In_channel.with_open_bin fixture_path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "fixture %s: %s" fixture_path msg
  in
  let report = Verify.Suite.run Verify.Instances.quick ~jobs:2 in
  if not report.Verify.Suite.passed then
    Alcotest.failf "quick tier FAILED:\n%s"
      (Experiments.Common.render_to_string report.Verify.Suite.human);
  match json_diff "$" report.Verify.Suite.doc fixture with
  | None -> ()
  | Some diff ->
    Alcotest.failf
      "quick certificates drifted from the pinned fixture at %s\n(regenerate with: dune exec \
       bin/radio_verify.exe -- --quick --json test/fixtures/verify-quick.json)"
      diff

(* -- radio_verify exit codes -- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1)) in
  go 0

let conflicting_tiers_exit_124 () =
  let out = Filename.temp_file "radio_verify" ".out" in
  let err = Filename.temp_file "radio_verify" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/radio_verify.exe --quick --full >%s 2>%s" (Filename.quote out)
         (Filename.quote err))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  check Alcotest.int "exit code" 124 code;
  check Alcotest.string "no report on stdout" "" stdout;
  if not (contains stderr "mutually exclusive") then
    Alcotest.failf "stderr should name the conflict, got: %s" stderr

let () =
  Alcotest.run "verify"
    [ ( "disrupt",
        [ qcheck brute_agrees_at_most;
          qcheck brute_agrees_minimum;
          Alcotest.test_case "jobs parity" `Quick disrupt_parity_across_jobs ] );
      ( "game_tree",
        [ Alcotest.test_case "explore two disjoint edges" `Quick explore_two_disjoint_edges;
          Alcotest.test_case "strike paths = strategies" `Quick
            strike_paths_count_matches_strategies;
          Alcotest.test_case "path limit fails loudly" `Quick strike_paths_limit_fails_loudly;
          Alcotest.test_case "unjammed replay delivers all" `Quick
            replay_unjammed_delivers_everything ] );
      ( "fame",
        [ Alcotest.test_case "exhaustive smallest regime" `Quick
            fame_exhaustive_smallest_regime;
          Alcotest.test_case "jobs parity" `Quick fame_parity_across_jobs ] );
      ( "suite",
        [ Alcotest.test_case "pinned quick certificates" `Slow pinned_quick_certificates ] );
      ( "verify_binary",
        [ Alcotest.test_case "--quick --full exits 124" `Quick conflicting_tiers_exit_124 ] ) ]
