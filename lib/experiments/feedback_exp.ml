let agreement_trial ~beta ~t ~n ~seed =
  let channels = t + 1 in
  let cfg = Radio.Config.make ~seed ~n ~channels ~t () in
  let params = { Ame.Params.default with Ame.Params.beta_feedback = beta } in
  let reps = Ame.Params.feedback_reps params ~channels ~budget:t ~n in
  (* Witness sets: channels blocks of C nodes each; requires n >= C^2. *)
  if n < channels * channels then invalid_arg "agreement_trial: n < C^2";
  let witnesses =
    Array.init channels (fun c -> Array.init channels (fun i -> (c * channels) + i))
  in
  (* Ground-truth per-channel flags, deterministic from the seed. *)
  let truth_rng = Prng.Rng.create (Int64.logxor seed 0x7EEDL) in
  let truth = Array.init channels (fun _ -> Prng.Rng.bool truth_rng) in
  let truth_set =
    List.filter (fun c -> truth.(c)) (List.init channels Fun.id)
  in
  let outputs = Array.make n [] in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let my_flag =
      let flag = ref false in
      Array.iteri
        (fun c group -> if Array.exists (fun w -> w = id) group then flag := truth.(c))
        witnesses;
      !flag
    in
    outputs.(id) <-
      Ame.Feedback.run ~reps ~my_id:id ~rng:ctx.rng ~channels ~witnesses
        ~witness_size:channels ~my_flag
  in
  let adversary =
    Radio.Adversary.random_jammer (Prng.Rng.create (Int64.add seed 17L)) ~channels ~budget:t
  in
  let result = Radio.Engine.run_nodes cfg ~adversary node_body in
  let agreed = Array.for_all (fun d -> d = truth_set) outputs in
  (agreed, result.Radio.Engine.rounds_used)

let e5 ~quick ~jobs =
  let betas = if quick then [ 0.25; 3.0 ] else [ 0.25; 0.5; 1.0; 2.0; 3.0 ] in
  let trials = if quick then 10 else 40 in
  let scenarios = if quick then [ (2, 30) ] else [ (1, 20); (2, 30); (3, 40) ] in
  (* Flatten the (scenario, beta) grid so the sweep sees every point; each
     point returns (row, rounds) and the fold happens after the merge so
     nothing mutates shared state from pool tasks. *)
  let grid =
    List.concat_map (fun (t, n) -> List.map (fun beta -> (t, n, beta)) betas) scenarios
  in
  let points =
    Common.sweep ~jobs
      (fun (t, n, beta) ->
        (* Each trial is an independent replicate keyed by an explicit
           seed, so the fan-out over domains cannot perturb results. *)
        let outcomes =
          Common.replicates ~jobs ~trials (fun trial ->
              agreement_trial ~beta ~t ~n ~seed:(Int64.of_int ((trial * 37) + (t * 1009))))
        in
        let failures =
          List.length (List.filter (fun (agreed, _) -> not agreed) outcomes)
        in
        let rounds = List.fold_left (fun _ (_, r) -> r) 0 outcomes in
        let rounds_sum = List.fold_left (fun acc (_, r) -> acc + r) 0 outcomes in
        let norm =
          float_of_int rounds
          /. (float_of_int (t * t) *. Radio.Config.log2 (float_of_int n))
        in
        ( [ string_of_int t; string_of_int n; Printf.sprintf "%.2f" beta;
            string_of_int rounds; Printf.sprintf "%.2f" norm;
            Printf.sprintf "%d/%d" failures trials ],
          rounds_sum ))
      grid
  in
  let rows = List.map fst points in
  let total = List.fold_left (fun acc (_, r) -> acc + r) 0 points in
  Common.result ~total_rounds:total
    [ Common.Blank;
      Common.text "== E5 / Lemma 5: communication-feedback agreement and cost ==";
      Common.text
        "per invocation: rounds = C * reps = Theta(t^2 log n); failures should vanish as beta \
         grows";
      Common.Blank;
      Common.table
        ~header:[ "t"; "n"; "beta"; "rounds"; "rounds/(t^2 lg n)"; "disagreements" ]
        rows ]
