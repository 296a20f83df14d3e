(* Exhaustive f-AME verification: one radio-engine execution per strike
   strategy, each compared against the pure-game replay oracle.

   Position i of a move's proposal is broadcast on channel i (the
   schedule posts exactly that to the oracle), so a pure-game strike path
   — per-move jammed proposal positions — translates verbatim into a
   scripted jamming adversary.  The script reads the oracle to recognize
   message rounds, exactly like [Experiments.Common.schedule_jam]. *)

module Fame = Ame.Fame

type regime = {
  name : string;
  budget : int;
  channels : int;
  channels_used : int;
  mode : Fame.feedback_mode;
  pairs : (int * int) list;
  jam_feedback : bool;
  seed : int64;
}

type result = {
  strategies : int;
  runs : int;
  engine_rounds : int;
  worst_rounds : int;
  worst_moves : int;
  worst_path : string;
  violations : string list;
}

let root regime =
  (* Must mirror Fame.run's initial state exactly: Dense over the inferred
     endpoint range, proposal size = channels used, min proposal t+1. *)
  Game.State.create_dense ~proposal_size:regime.channels_used
    ~min_proposal:(regime.budget + 1)
    (Rgraph.Digraph.Dense.of_edges regime.pairs)
    ~t:regime.budget

let pp_path path =
  match path with
  | [] -> "(no-move)"
  | _ ->
    String.concat " "
      (List.map
         (fun jam -> Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int jam)))
         path)

(* The scripted adversary: jam the listed proposal positions (= channels)
   of each successive message round; optionally also jam channels
   [0..t-1] of every feedback round. *)
let scripted board ~budget ~jam_feedback path =
  let move = ref 0 in
  let jam chan = { Radio.Adversary.chan; spoof = None } in
  { Radio.Adversary.name = "verify-scripted";
    act =
      (fun ~round ->
        match Ame.Oracle.get board ~round with
        | Some _ ->
          let jams = if !move < Array.length path then path.(!move) else [] in
          incr move;
          List.map jam jams
        | None -> if jam_feedback then List.init budget jam else []);
    observe = None }

(* Exact round-count prediction: each move costs 1 message round plus the
   feedback rounds its proposal size dictates (Fame falls back to
   sequential feedback on tail proposals narrower than channels_used). *)
let predicted_rounds regime ~n sizes =
  let params = Ame.Params.default in
  let seq_reps =
    Ame.Params.feedback_reps params ~channels:regime.channels ~budget:regime.budget ~n
  in
  let tr = Ame.Params.tree_reps params ~n in
  List.fold_left
    (fun acc p ->
      let fb =
        match regime.mode with
        | Fame.Tree when p = regime.channels_used ->
          Ame.Tree_feedback.rounds_consumed ~groups:p ~reps:tr
        | Fame.Tree | Fame.Sequential ->
          Ame.Feedback.rounds_consumed ~witnesses:(Array.make p [||]) ~reps:seq_reps
      in
      acc + 1 + fb)
    0 sizes

let edge_lists_equal a b = List.equal (fun (v, w) (x, y) -> v = x && w = y) a b

let pp_pairs pairs =
  Printf.sprintf "[%s]"
    (String.concat ";" (List.map (fun (v, w) -> Printf.sprintf "%d,%d" v w) pairs))

type run_result = { rounds : int; moves : int; viols : string list }

let run_one regime ~n ~initial path =
  let cfg =
    Radio.Config.make ~seed:regime.seed ~n ~channels:regime.channels ~t:regime.budget ()
  in
  let path_arr = Array.of_list path in
  let outcome =
    Fame.run ~channels_used:regime.channels_used ~feedback_mode:regime.mode ~cfg
      ~pairs:regime.pairs ~messages:Experiments.Common.default_messages
      ~adversary:(fun board ->
        scripted board ~budget:regime.budget ~jam_feedback:regime.jam_feedback path_arr)
      ()
  in
  let expected = Game_tree.replay initial ~jams:path in
  let viols = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        viols := Printf.sprintf "%s: %s on %s" regime.name msg (pp_path path) :: !viols)
      fmt
  in
  if outcome.Fame.diverged then fail "whp failure: nodes diverged";
  if not outcome.Fame.engine.Radio.Engine.completed then fail "engine hit max_rounds";
  if outcome.Fame.moves <> expected.Game_tree.replay_moves then
    fail "engine played %d moves, game replay says %d" outcome.Fame.moves
      expected.Game_tree.replay_moves;
  let delivered_pairs = List.map fst outcome.Fame.delivered in
  if not (edge_lists_equal delivered_pairs expected.Game_tree.delivered_edges) then
    fail "delivered %s, game replay says %s" (pp_pairs delivered_pairs)
      (pp_pairs expected.Game_tree.delivered_edges);
  List.iter
    (fun (pair, body) ->
      let want = Experiments.Common.default_messages pair in
      if String.compare body want <> 0 then
        fail "authentication: pair %s output %S, not the sent %S" (pp_pairs [ pair ]) body
          want)
    outcome.Fame.delivered;
  if not (edge_lists_equal outcome.Fame.confirmed expected.Game_tree.delivered_edges) then
    fail "sender awareness: confirmed %s, delivered %s" (pp_pairs outcome.Fame.confirmed)
      (pp_pairs expected.Game_tree.delivered_edges);
  if not (edge_lists_equal outcome.Fame.failed expected.Game_tree.failed_edges) then
    fail "failed set %s, game replay says %s" (pp_pairs outcome.Fame.failed)
      (pp_pairs expected.Game_tree.failed_edges);
  (match outcome.Fame.disruption_vc with
   | Some vc when vc <= regime.budget -> ()
   | Some vc -> fail "t-disruptability: failed-pair cover %d > t=%d" vc regime.budget
   | None -> fail "t-disruptability: cover not decided");
  let want_rounds = predicted_rounds regime ~n expected.Game_tree.proposal_sizes in
  if outcome.Fame.engine.Radio.Engine.rounds_used <> want_rounds then
    fail "used %d rounds, feedback arithmetic predicts %d"
      outcome.Fame.engine.Radio.Engine.rounds_used want_rounds;
  { rounds = outcome.Fame.engine.Radio.Engine.rounds_used;
    moves = outcome.Fame.moves;
    viols = List.rev !viols }

let chunk_size = 8

let chunks xs =
  let rec go acc cur k rest =
    match rest with
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest when k = chunk_size -> go (List.rev cur :: acc) [ x ] 1 rest
    | x :: rest -> go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let check regime ~path_limit ~jobs =
  let initial = root regime in
  let n =
    Experiments.Common.fame_nodes_for ~t:regime.budget ~channels_used:regime.channels_used
      ~channels:regime.channels
  in
  match Game_tree.strike_paths initial ~limit:path_limit with
  | Error msg ->
    { strategies = 0; runs = 0; engine_rounds = 0; worst_rounds = 0; worst_moves = 0;
      worst_path = ""; violations = [ Printf.sprintf "%s: %s" regime.name msg ] }
  | Ok paths ->
    (* Cross-check the enumeration against the minimax DAG: the leaf count
       must match, and no engine run may out-move the minimax bound. *)
    let tree = Game_tree.explore initial in
    let results =
      Parallel.map_ordered ~jobs
        (fun batch -> List.map (fun path -> (path, run_one regime ~n ~initial path)) batch)
        (chunks paths)
    in
    let runs = ref 0 and engine_rounds = ref 0 in
    let worst_rounds = ref (-1) and worst_moves = ref 0 and worst_path = ref "" in
    let violations = ref [] in
    List.iter
      (List.iter (fun (path, r) ->
           incr runs;
           engine_rounds := !engine_rounds + r.rounds;
           if r.moves > !worst_moves then worst_moves := r.moves;
           if r.rounds > !worst_rounds then begin
             worst_rounds := r.rounds;
             worst_path := pp_path path
           end;
           violations := List.rev_append r.viols !violations))
      results;
    let violations = ref (List.rev !violations) in
    if List.length paths <> tree.Game_tree.strategies then
      violations :=
        Printf.sprintf "%s: enumerated %d strike paths but the minimax tree has %d strategies"
          regime.name (List.length paths) tree.Game_tree.strategies
        :: !violations;
    if !worst_moves > tree.Game_tree.worst_moves then
      violations :=
        Printf.sprintf "%s: an engine run took %d moves, above the minimax worst case %d"
          regime.name !worst_moves tree.Game_tree.worst_moves
        :: !violations;
    { strategies = List.length paths;
      runs = !runs;
      engine_rounds = !engine_rounds;
      worst_rounds = (if !worst_rounds < 0 then 0 else !worst_rounds);
      worst_moves = !worst_moves;
      worst_path = !worst_path;
      violations = !violations }
