let e4 ~quick ~jobs =
  let sizes = if quick then [ 6; 10 ] else [ 6; 10; 14; 18; 24 ] in
  let rows =
    List.concat
      (Common.sweep ~jobs
         (fun m ->
           let g = Rgraph.Digraph.Dense.of_edges (Rgraph.Workload.complete ~n:m) in
           let edges = Rgraph.Digraph.Dense.edge_count g in
           let t = 2 in
           (* The random referee draws from a per-size seed so sizes stay
              independent replicates under parallel execution. *)
           let referees =
             [ Game.Referee.generous; Game.Referee.minimal_first;
               Game.Referee.spiteful ~min_return:1;
               Game.Referee.random (Prng.Rng.create (Int64.of_int (31 + m))) ~min_return:1 ]
           in
           List.map
             (fun (referee : Game.Referee.t) ->
               let o = Game.Runner.play (Game.State.create_dense g ~t) referee in
               [ Printf.sprintf "K%d" m; string_of_int edges; referee.Game.Referee.name;
                 string_of_int o.Game.Runner.moves; string_of_int o.Game.Runner.stars;
                 string_of_int o.Game.Runner.edges_removed; string_of_bool o.Game.Runner.won;
                 string_of_int (3 * edges);
                 Printf.sprintf "%.2f"
                   (float_of_int o.Game.Runner.moves /. float_of_int edges) ])
             referees)
         sizes)
  in
  Common.result
    [ Common.Blank;
      Common.text "== E4 / Theorem 4: greedy-removal finishes in O(|E|) moves ==";
      Common.text
        "bound column = |E| + 2|E| (edge removals + possible starrings); moves must stay \
         below";
      Common.Blank;
      Common.table
        ~header:
          [ "graph"; "|E|"; "referee"; "moves"; "stars"; "removed"; "won"; "bound";
            "moves/|E|" ]
        rows ]
