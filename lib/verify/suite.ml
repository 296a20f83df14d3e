module Json = Experiments.Json
module Common = Experiments.Common

(* Certificates stay readable when a broken kernel fails thousands of
   instances: keep the head of the list and say how much was elided. *)
let cap_violations vs =
  let cap = 25 in
  let n = List.length vs in
  if n <= cap then vs
  else List.filteri (fun i _ -> i < cap) vs @ [ Printf.sprintf "... and %d more" (n - cap) ]

let disrupt_certificate (tier : Instances.tier) ~jobs =
  let r =
    Disrupt.check ~max_nodes:tier.Instances.disrupt_nodes
      ~budgets:tier.Instances.disrupt_budgets ~jobs
  in
  let budgets = String.concat "," (List.map string_of_int tier.Instances.disrupt_budgets) in
  ( { Certificate.check = "disruptability-kernel-agreement";
      theorem = "Theorem 2";
      description =
        Printf.sprintf
          "bitset vertex-cover kernel agrees with exhaustive subset enumeration on every \
           graph on <= %d labeled nodes, for t in {%s}"
          tier.Instances.disrupt_nodes budgets;
      instances = r.Disrupt.graphs;
      explored =
        [ ("kernel_queries", r.Disrupt.queries); ("subsets_tested", r.Disrupt.subsets) ];
      bound = Printf.sprintf "t-disruptability thresholds for t in {%s}" budgets;
      violations = cap_violations r.Disrupt.violations;
      worst =
        [ ("largest_minimum_cover", Json.Int r.Disrupt.worst_cover);
          ("witness", Json.String r.Disrupt.worst_graph) ] },
    0 )

let game_certificate (tier : Instances.tier) ~jobs =
  let results =
    List.concat_map
      (fun (nodes, configs) ->
        List.map
          (fun config -> (nodes, config, Game_check.check ~nodes config ~jobs))
          configs)
      tier.Instances.game_sweeps
  in
  let sum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 results in
  let worst =
    List.fold_left
      (fun acc (_, _, r) ->
        match acc with
        | Some best when best.Game_check.worst_moves >= r.Game_check.worst_moves -> acc
        | _ -> Some r)
      None results
  in
  let tight =
    List.find_opt (fun (_, _, r) -> r.Game_check.tight_instances > 0) results
  in
  ( { Certificate.check = "removal-game-move-bound";
      theorem = "Theorem 4";
      description =
        "no referee strategy forces greedy play past 3|E| moves, on every digraph of every \
         sweep, by complete minimax";
      instances = sum (fun r -> r.Game_check.instances);
      explored =
        ( "strategies", sum (fun r -> r.Game_check.strategies) )
        :: ( "states", sum (fun r -> r.Game_check.states) )
        :: ( "choices", sum (fun r -> r.Game_check.choices) )
        :: List.map
             (fun (nodes, (config : Game_check.config), r) ->
               (Printf.sprintf "worst_moves[n=%d,%s]" nodes config.Game_check.label,
                r.Game_check.worst_moves))
             results;
      bound = "3|E| moves, tight: >= 1 instance needs >= |E|";
      violations =
        cap_violations (List.concat_map (fun (_, _, r) -> r.Game_check.violations) results);
      worst =
        (match worst with
         | None -> []
         | Some w ->
           [ ("moves", Json.Int w.Game_check.worst_moves);
             ("edges", Json.Int w.Game_check.worst_edges);
             ("instance", Json.String w.Game_check.worst_instance);
             ("tight_example",
              Json.String
                (match tight with
                 | Some (_, _, r) -> r.Game_check.tight_example
                 | None -> "")) ]) },
    0 )

let fame_certificate (tier : Instances.tier) ~jobs =
  let results =
    List.map
      (fun regime ->
        (regime, Fame_check.check regime ~path_limit:tier.Instances.path_limit ~jobs))
      tier.Instances.regimes
  in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  let worst =
    List.fold_left
      (fun acc (regime, r) ->
        match acc with
        | Some (_, best) when best.Fame_check.worst_rounds >= r.Fame_check.worst_rounds -> acc
        | _ -> Some (regime, r))
      None results
  in
  let total_rounds = sum (fun r -> r.Fame_check.engine_rounds) in
  ( { Certificate.check = "fame-exhaustive-strikes";
      theorem = "Theorem 6";
      description =
        "f-AME on derandomized coins completes against every strike strategy in every \
         regime, matching the pure-game replay move-for-move, round-exact";
      instances = sum (fun r -> r.Fame_check.runs);
      explored =
        ( "engine_rounds", total_rounds )
        :: List.map
             (fun ((regime : Fame_check.regime), r) ->
               ( Printf.sprintf "strategies[%s]" regime.Fame_check.name,
                 r.Fame_check.strategies ))
             results;
      bound = "delivered/confirmed/failed = replay; cover <= t; rounds = feedback arithmetic";
      violations =
        cap_violations (List.concat_map (fun (_, r) -> r.Fame_check.violations) results);
      worst =
        (match worst with
         | Some (regime, r) ->
           [ ("regime", Json.String regime.Fame_check.name);
             ("rounds", Json.Int r.Fame_check.worst_rounds);
             ("moves", Json.Int r.Fame_check.worst_moves);
             ("strikes", Json.String r.Fame_check.worst_path) ]
         | None -> []) },
    total_rounds )

type report = {
  tier : string;
  certificates : Certificate.t list;
  passed : bool;
  human : Experiments.Common.result;
  doc : Experiments.Json.t;
}

let human_blocks tier certificates =
  let header = [ "check"; "theorem"; "instances"; "result" ] in
  let rows =
    List.map
      (fun (c : Certificate.t) ->
        [ c.Certificate.check;
          c.Certificate.theorem;
          string_of_int c.Certificate.instances;
          (if Certificate.passed c then "ok" else
             Printf.sprintf "FAIL (%d violations)" (List.length c.Certificate.violations)) ])
      certificates
  in
  let violations =
    List.concat_map
      (fun (c : Certificate.t) ->
        List.map
          (fun v -> Common.textf "  violation [%s] %s" c.Certificate.check v)
          c.Certificate.violations)
      certificates
  in
  Common.textf "certificate suite: tier=%s schema=%s" tier Certificate.schema
  :: Common.table ~header rows
  :: violations

let run (tier : Instances.tier) ~jobs =
  Parallel.run ~jobs (fun () ->
      let disrupt, r1 = disrupt_certificate tier ~jobs in
      let game, r2 = game_certificate tier ~jobs in
      let fame, r3 = fame_certificate tier ~jobs in
      let certificates = [ disrupt; game; fame ] in
      let passed = List.for_all Certificate.passed certificates in
      let label = tier.Instances.label in
      { tier = label;
        certificates;
        passed;
        human =
          Common.result
            ~total_rounds:(r1 + r2 + r3)
            (human_blocks label certificates
            @ [ Common.textf "verdict: %s" (if passed then "PASS" else "FAIL") ]);
        doc = Certificate.document ~tier:label certificates })
