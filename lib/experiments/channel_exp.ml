(* E9 runs the Section 7 secure channel as a 1-channel special case of the
   multiplexed service: one logical broadcast group of the n-t key holders
   (Repeat transport, Theta(t log n) repetitions per emulated round) with
   the t key outsiders snooping and forging from inside the network. *)

module Mux = Secure_channel.Mux

let e9 ~quick ~jobs =
  let scenarios = if quick then [ (1, 20) ] else [ (1, 20); (2, 30); (3, 40) ] in
  let messages_per_run = 6 in
  let outcomes =
    Common.sweep ~jobs
      (fun (t, n) ->
        let channels = t + 1 in
        let group = n - t in
        let reps = Radio.Config.reps ~scale:(4.0 *. float_of_int (t + 1)) ~n in
        let key = Crypto.Sha256.digest (Printf.sprintf "group-key-%d-%d" t n) in
        let spec =
          Mux.make ~key ~logical:1 ~phys:channels ~budget:t
            ~transport:(Mux.Repeat { reps; group })
            ~rounds:messages_per_run ~outsiders:t
            ~seed:(Int64.of_int ((t * 31) + n))
            ()
        in
        let r =
          Mux.run spec
            ~adversary:(Common.random_jam ~seed:(Int64.of_int (n * 7)) ~channels ~budget:t)
        in
        let rpe = r.Mux.real_rounds_per_emulated in
        let norm =
          float_of_int rpe /. (float_of_int t *. Radio.Config.log2 (float_of_int n))
        in
        ( [ string_of_int t; string_of_int n; string_of_int rpe;
            Printf.sprintf "%.2f" norm;
            Printf.sprintf "%d/%d" r.Mux.stats.Mux.full_deliveries
              r.Mux.stats.Mux.messages_done;
            string_of_int r.Mux.stats.Mux.plaintext_leaks;
            string_of_int r.Mux.stats.Mux.forged_accepts ],
          rpe * messages_per_run ))
      scenarios
  in
  Common.result ~total_rounds:(List.fold_left (fun acc (_, r) -> acc + r) 0 outcomes)
    [ Common.Blank;
      Common.text "== E9 / Section 7: emulated secure channel, Theta(t log n) per round ==";
      Common.Blank;
      Common.table
        ~header:
          [ "t"; "n"; "rounds/msg"; "norm/(t lg n)"; "fully delivered"; "plaintext leaks";
            "forged accepts" ]
        (List.map fst outcomes) ]
