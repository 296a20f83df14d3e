let e8 ~quick ~jobs =
  let scenarios =
    if quick then [ (1, 20) ] else [ (1, 20); (1, 28); (1, 36); (2, 40); (2, 52) ]
  in
  let outcomes =
    Common.sweep ~jobs
      (fun (t, n) ->
        let channels = t + 1 in
        let cfg =
          Radio.Config.make ~seed:(Int64.of_int ((t * 7919) + n)) ~n ~channels ~t
            ~max_rounds:50_000_000 ()
        in
        let o =
          Groupkey.Protocol.run ~cfg
            ~fame_adversary:(Common.schedule_jam ~channels ~budget:t)
            ~hop_adversary:
              (Common.random_jam ~seed:(Int64.of_int (n + 3)) ~channels ~budget:t)
            ()
        in
        let norm =
          float_of_int o.Groupkey.Protocol.total_rounds
          /. (float_of_int (n * t * t * t) *. Radio.Config.log2 (float_of_int n))
        in
        ( [ string_of_int t; string_of_int n;
            string_of_int o.Groupkey.Protocol.total_rounds; Printf.sprintf "%.2f" norm;
            Printf.sprintf "%d/%d" o.Groupkey.Protocol.agreed_key_holders n;
            string_of_int o.Groupkey.Protocol.wrong_key_holders;
            string_of_int o.Groupkey.Protocol.no_key_holders;
            string_of_int (n - t);
            String.concat "," (List.map string_of_int o.Groupkey.Protocol.complete_leaders) ],
          o.Groupkey.Protocol.total_rounds ))
      scenarios
  in
  Common.result ~total_rounds:(List.fold_left (fun acc (_, r) -> acc + r) 0 outcomes)
    [ Common.Blank;
      Common.text "== E8 / Section 6: shared group key in Theta(n t^3 log n) rounds ==";
      Common.Blank;
      Common.table
        ~header:
          [ "t"; "n"; "rounds"; "rounds/(n t^3 lg n)"; "agreed"; "wrong"; "none"; "need>=";
            "complete leaders" ]
        (List.map fst outcomes) ]
