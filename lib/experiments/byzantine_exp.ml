let e13 ~quick ~jobs =
  let t = 1 in
  let channels = t + 1 in
  let corruption_levels = if quick then [ 4 ] else [ 0; 2; 4; 8 ] in
  let outcomes =
    Common.sweep ~jobs
      (fun corrupt_count ->
        (* Two sources fan out to 20..25.  With t = 1 both sources are
           starred in the first game move, so watcher (and therefore
           surrogate) duty starts at node 2 -- which is exactly where the
           corrupted nodes sit. *)
        let sources = [ 0; 1 ] in
        let dests = [ 20; 21; 22; 23; 24; 25 ] in
        let pairs = List.concat_map (fun v -> List.map (fun w -> (v, w)) dests) sources in
        let corrupted = List.init corrupt_count (fun i -> 2 + i) in
        let n = 30 in
        let cfg =
          Radio.Config.make ~n ~channels ~t ~seed:(Int64.of_int (7 + corrupt_count))
            ~max_rounds:Radio.Config.default_max_rounds ()
        in
        let forged delivered =
          List.length
            (List.filter (fun (pair, body) -> body <> Common.default_messages pair) delivered)
        in
        let fame_with corruption =
          Ame.Fame.run ~corrupted ~corruption ~cfg ~pairs ~messages:Common.default_messages
            ~adversary:(Common.schedule_jam ~channels ~budget:t)
            ()
        in
        let forging = fame_with Ame.Fame.Forge_as_surrogate in
        let lying = fame_with Ame.Fame.Lie_as_witness in
        let direct =
          Ame.Fame.run ~play:Ame.Fame.Direct ~cfg ~pairs ~messages:Common.default_messages
            ~adversary:(Common.schedule_jam ~channels ~budget:t)
            ()
        in
        let row label (o : Ame.Fame.outcome) =
          [ label; string_of_int corrupt_count;
            string_of_int (List.length o.Ame.Fame.delivered);
            string_of_int (forged o.Ame.Fame.delivered);
            string_of_bool o.Ame.Fame.diverged ]
        in
        ( [ row "f-AME/forging-surrogates" forging;
            row "f-AME/lying-witnesses" lying;
            row "direct" direct ],
          forging.Ame.Fame.engine.Radio.Engine.rounds_used
          + lying.Ame.Fame.engine.Radio.Engine.rounds_used
          + direct.Ame.Fame.engine.Radio.Engine.rounds_used ))
      corruption_levels
  in
  Common.result ~total_rounds:(List.fold_left (fun acc (_, r) -> acc + r) 0 outcomes)
    [ Common.Blank;
      Common.text
        "== E13 / Section 8 open question 1: corrupted surrogates vs direct exchange ==";
      Common.text
        "two attacks: forging relayed vectors (poisons f-AME, direct immune) and lying in";
      Common.text
        "feedback (breaks f-AME agreement -- why Byzantine t-disruptability stays open)";
      Common.Blank;
      Common.table
        ~header:
          [ "protocol/attack"; "corrupted"; "delivered"; "forged accepted";
            "agreement broken" ]
        (List.concat_map fst outcomes) ]
