(* Tests for the f-AME stack: schedule construction, communication-feedback
   (Lemma 5), the full protocol (Theorem 6), the optimizations of Sections
   5.5-5.6, and the baselines. *)

module Params = Ame.Params
module Schedule = Ame.Schedule
module Feedback = Ame.Feedback
module Tree_feedback = Ame.Tree_feedback
module Fame = Ame.Fame
module Naive = Ame.Naive
module Gossip = Ame.Gossip
module Compact = Ame.Compact
module Attacks = Ame.Attacks
module Oracle = Ame.Oracle
module Workload = Rgraph.Workload

let check = Alcotest.check

let messages (v, w) = Printf.sprintf "m-%d-%d" v w

let fame_cfg ?(t = 2) ?(seed = 1L) ?channels () =
  let channels = Option.value channels ~default:(t + 1) in
  let n =
    Params.nodes_required Params.default ~channels_used:channels ~budget:t ~channels + 6
  in
  Radio.Config.make ~n ~channels ~t ~seed ~max_rounds:Radio.Config.default_max_rounds ()

let null_adversary (_ : Oracle.t) = Radio.Adversary.null

(* -- params -- *)

let params_reps_monotone () =
  let p = Params.default in
  let r1 = Params.feedback_reps p ~channels:3 ~budget:2 ~n:20 in
  let r2 = Params.feedback_reps p ~channels:3 ~budget:2 ~n:200 in
  check Alcotest.bool "more nodes, more reps" true (r2 > r1);
  let wide = Params.feedback_reps p ~channels:6 ~budget:2 ~n:20 in
  check Alcotest.bool "more channels, fewer reps" true (wide < r1)

let params_nodes_required () =
  (* At t=2, C=3: 3 channels * 9 watchers + 6 involved + 1 = 34, echoing the
     paper's n > 3(t+1)^2 + 2(t+1) = 33. *)
  check Alcotest.int "paper bound" 34
    (Params.nodes_required Params.default ~channels_used:3 ~budget:2 ~channels:3)

(* -- schedule -- *)

let sched_proposal ?(starred = []) items =
  ignore starred;
  items

let build_basic () =
  let proposal = [ Game.State.Node 0; Game.State.Edge (1, 2); Game.State.Node 3 ] in
  let sched =
    Schedule.build ~proposal:(sched_proposal proposal) ~surrogates:(fun _ -> [||]) ~n:40
      ~witness_size:3 ~watchers_per_channel:9 ()
  in
  check Alcotest.int "node broadcasts itself" 0 sched.Schedule.broadcaster.(0);
  check Alcotest.int "edge source broadcasts" 1 sched.Schedule.broadcaster.(1);
  check (Alcotest.option Alcotest.int) "edge destination receives" (Some 2)
    sched.Schedule.receiver.(1);
  check Alcotest.int "witnesses are C per channel" 3
    (Array.length (Schedule.witness_sets sched).(0));
  check Alcotest.int "watchers per channel" 9 (Array.length sched.Schedule.watchers.(0));
  (* All assigned nodes distinct. *)
  let assigned =
    Array.to_list sched.Schedule.broadcaster
    @ List.filter_map Fun.id (Array.to_list sched.Schedule.receiver)
    @ List.concat_map Array.to_list (Array.to_list sched.Schedule.watchers)
  in
  check Alcotest.int "no node used twice" (List.length assigned)
    (List.length (List.sort_uniq compare assigned))

let build_uses_surrogate () =
  (* Two edges share starred source 5: the second must use a surrogate. *)
  let proposal = [ Game.State.Edge (5, 1); Game.State.Edge (5, 2) ] in
  let sched =
    Schedule.build ~proposal ~surrogates:(fun v -> if v = 5 then [| 30; 31; 32 |] else [||])
      ~n:40 ~witness_size:2 ~watchers_per_channel:6 ()
  in
  check Alcotest.int "first edge keeps its source" 5 sched.Schedule.broadcaster.(0);
  check Alcotest.int "second edge gets a surrogate" 30 sched.Schedule.broadcaster.(1);
  check Alcotest.int "owner still the source" 5 sched.Schedule.owner.(1)

let build_divergence_on_missing_surrogate () =
  let proposal = [ Game.State.Edge (5, 1); Game.State.Edge (5, 2) ] in
  try
    ignore
      (Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:40 ~witness_size:2
         ~watchers_per_channel:6 ());
    Alcotest.fail "expected Divergence"
  with Schedule.Divergence _ -> ()

let build_divergence_when_nodes_short () =
  let proposal = [ Game.State.Node 0; Game.State.Node 1 ] in
  try
    ignore
      (Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:5 ~witness_size:2
         ~watchers_per_channel:6 ());
    Alcotest.fail "expected Divergence"
  with Schedule.Divergence _ -> ()

let build_deterministic () =
  let proposal = [ Game.State.Node 4; Game.State.Edge (7, 8) ] in
  let build () =
    Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:30 ~witness_size:2
      ~watchers_per_channel:6 ()
  in
  let a = build () and b = build () in
  check Alcotest.bool "identical schedules" true
    (a.Schedule.broadcaster = b.Schedule.broadcaster
    && a.Schedule.watchers = b.Schedule.watchers)

let roles_cover_everyone_once () =
  let proposal = [ Game.State.Node 0; Game.State.Edge (1, 2); Game.State.Edge (3, 4) ] in
  let sched =
    Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:50 ~witness_size:3
      ~watchers_per_channel:9 ()
  in
  let broadcasters = ref 0 and receivers = ref 0 and watchers = ref 0 and off = ref 0 in
  for id = 0 to 49 do
    match Schedule.role_of sched id with
    | Schedule.Broadcast _ -> incr broadcasters
    | Schedule.Receive _ -> incr receivers
    | Schedule.Watch _ -> incr watchers
    | Schedule.Off -> incr off
  done;
  check Alcotest.int "3 broadcasters" 3 !broadcasters;
  check Alcotest.int "2 receivers" 2 !receivers;
  check Alcotest.int "27 watchers" 27 !watchers;
  check Alcotest.int "rest off" (50 - 3 - 2 - 27) !off

let witness_channel_lookup () =
  let proposal = [ Game.State.Node 0; Game.State.Node 1 ] in
  let sched =
    Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:30 ~witness_size:2
      ~watchers_per_channel:6 ()
  in
  let w0 = sched.Schedule.watchers.(1).(0) in
  check (Alcotest.option Alcotest.int) "witness channel" (Some 1)
    (Schedule.witness_channel sched w0);
  check (Alcotest.option Alcotest.int) "non-witness" None (Schedule.witness_channel sched 29)

let schedule_invariants_on_random_proposals =
  (* Property: for arbitrary legal-shaped proposals, the schedule never
     double-books a node, carries the right owner on every channel, and
     gives every used channel a full watcher set. *)
  let gen =
    QCheck.Gen.(
      let* t = int_range 1 3 in
      let* node_items = int_range 0 (t + 1) in
      let* seed = int_range 0 9999 in
      return (t, node_items, seed))
  in
  let arb =
    QCheck.make ~print:(fun (t, k, s) -> Printf.sprintf "t=%d nodes=%d seed=%d" t k s) gen
  in
  QCheck.Test.make ~name:"schedule invariants on random proposals" ~count:200 arb
    (fun (t, node_items, seed) ->
      let size = t + 1 in
      let rng = Prng.Rng.create (Int64.of_int (seed + 1)) in
      let node_items = min node_items size in
      (* Distinct proposal nodes 0..node_items-1; edges with starred sources
         50, 51, ... and distinct destinations above 60. *)
      let nodes = List.init node_items (fun i -> Game.State.Node i) in
      let edges =
        List.init (size - node_items) (fun i ->
            let src = 50 + Prng.Rng.int rng 2 in
            Game.State.Edge (src, 60 + i))
      in
      let proposal = nodes @ edges in
      let surrogates v = if v >= 50 then [| 40; 41; 42; 43; 44; 45 |] else [||] in
      match
        Schedule.build ~proposal ~surrogates ~n:120 ~witness_size:(t + 1)
          ~watchers_per_channel:(3 * (t + 1)) ()
      with
      | exception Schedule.Divergence _ -> true (* legal outcome for adversarial inputs *)
      | sched ->
        let k = Array.length sched.Schedule.items in
        let assigned =
          Array.to_list sched.Schedule.broadcaster
          @ List.filter_map Fun.id (Array.to_list sched.Schedule.receiver)
          @ List.concat_map Array.to_list (Array.to_list sched.Schedule.watchers)
        in
        let no_double_booking =
          List.length assigned = List.length (List.sort_uniq compare assigned)
        in
        let owners_right =
          List.for_all Fun.id
            (List.init k (fun c ->
                 match sched.Schedule.items.(c) with
                 | Game.State.Node v -> sched.Schedule.owner.(c) = v
                 | Game.State.Edge (v, w) ->
                   sched.Schedule.owner.(c) = v && sched.Schedule.receiver.(c) = Some w))
        in
        let witnesses_full =
          Array.for_all (fun ws -> Array.length ws = t + 1) (Schedule.witness_sets sched)
        in
        no_double_booking && owners_right && witnesses_full)

let schedule_index_matches_scan =
  (* Property: the O(1) inverted index agrees with the linear-scan oracle
     for every node, across consecutive builds on one shared scratch (the
     benchmark replays' usage pattern), including after the scratch
     regrows; and once a later build has retired an index, its lookups
     raise. *)
  let gen =
    QCheck.Gen.(
      let* t = int_range 1 3 in
      let* node_items = int_range 0 (t + 1) in
      let* seed = int_range 0 9999 in
      let* builds = int_range 1 3 in
      return (t, node_items, seed, builds))
  in
  let arb =
    QCheck.make
      ~print:(fun (t, k, s, b) -> Printf.sprintf "t=%d nodes=%d seed=%d builds=%d" t k s b)
      gen
  in
  QCheck.Test.make ~name:"schedule index matches scan oracle" ~count:200 arb
    (fun (t, node_items, seed, builds) ->
      let size = t + 1 in
      let rng = Prng.Rng.create (Int64.of_int (seed + 1)) in
      let node_items = min node_items size in
      let scratch = Schedule.make_scratch () in
      let build round =
        let nodes = List.init node_items (fun i -> Game.State.Node ((i + round) mod 10)) in
        let edges =
          List.init (size - node_items) (fun i ->
              let src = 50 + Prng.Rng.int rng 2 in
              Game.State.Edge (src, 60 + i))
        in
        let surrogates v = if v >= 50 then [| 40; 41; 42; 43; 44; 45 |] else [||] in
        Schedule.build ~scratch ~proposal:(nodes @ edges) ~surrogates ~n:120
          ~witness_size:(t + 1) ~watchers_per_channel:(3 * (t + 1)) ()
      in
      let agrees sched =
        let ok = ref true in
        for id = 0 to 119 do
          if Schedule.role_of sched id <> Schedule_scan.role_of sched id then ok := false;
          if Schedule.witness_channel sched id <> Schedule_scan.witness_channel sched id
          then ok := false
        done;
        !ok
      in
      let raises_stale sched =
        let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
        raises (fun () -> Schedule.role_of sched 0)
        && raises (fun () -> Schedule.witness_channel sched 0)
      in
      let rec go round prev ok =
        if round >= builds then ok
        else
          match build round with
          | exception Schedule.Divergence _ -> go (round + 1) prev ok
          | sched ->
            (* This build on the shared scratch retired [prev]'s index. *)
            let ok = ok && agrees sched && Option.fold ~none:true ~some:raises_stale prev in
            go (round + 1) (Some sched) ok
      in
      go 0 None true)

let oracle_entry_huge_proposal () =
  (* The flattened builder and iterative oracle walk must survive a
     proposal three orders beyond protocol sizes without stack overflow,
     and the O(1) role index must still agree with the scan oracle at that
     scale. *)
  let k = 100_000 in
  let proposal = List.init k (fun i -> Game.State.Node i) in
  let sched =
    Schedule.build ~proposal ~surrogates:(fun _ -> [||]) ~n:(3 * k) ~witness_size:1
      ~watchers_per_channel:1 ()
  in
  let entry = Schedule.oracle_entry sched in
  check Alcotest.int "all channels in use" k (List.length entry.Oracle.channels_in_use);
  check Alcotest.int "kinds cover all channels" k (List.length entry.Oracle.kinds);
  List.iter
    (fun id ->
      let same = Schedule.role_of sched id = Schedule_scan.role_of sched id in
      check Alcotest.bool (Printf.sprintf "index = scan at %d" id) true same)
    [ 0; 1; k - 1; k; (2 * k) - 1; (3 * k) - 1 ]

(* -- communication-feedback (Lemma 5) -- *)

let feedback_agreement_across_seeds () =
  for seed = 1 to 15 do
    let agreed, _rounds =
      Experiments.Feedback_exp.agreement_trial ~beta:3.0 ~t:2 ~n:30
        ~seed:(Int64.of_int seed)
    in
    check Alcotest.bool (Printf.sprintf "seed %d agrees" seed) true agreed
  done

let feedback_round_cost () =
  let _, rounds = Experiments.Feedback_exp.agreement_trial ~beta:3.0 ~t:2 ~n:30 ~seed:3L in
  let reps = Params.feedback_reps Params.default ~channels:3 ~budget:2 ~n:30 in
  check Alcotest.int "rounds = C * reps" (3 * reps) rounds

let feedback_starved_fails_sometimes () =
  let failures = ref 0 in
  for seed = 1 to 15 do
    let agreed, _ =
      Experiments.Feedback_exp.agreement_trial ~beta:0.2 ~t:2 ~n:30 ~seed:(Int64.of_int seed)
    in
    if not agreed then incr failures
  done;
  check Alcotest.bool "starving feedback causes disagreement" true (!failures > 0)

let feedback_64_groups () =
  (* More witness groups than an int bitmask holds: groups r mod 3 = 0 and
     the last four are flagged.  With no jammer every listener round hears
     its phase's witnesses, so every node must decode exactly that set. *)
  let channels = 2 and k = 64 in
  let n = (k * channels) + 2 in
  let cfg = Radio.Config.make ~seed:5L ~n ~channels ~t:1 () in
  let witnesses = Array.init k (fun r -> Array.init channels (fun i -> (r * channels) + i)) in
  let flagged r = r mod 3 = 0 || r >= k - 4 in
  let expected = List.filter flagged (List.init k Fun.id) in
  let outputs = Array.make n [] in
  let result =
    Radio.Engine.run_nodes cfg ~adversary:Radio.Adversary.null (fun (ctx : Radio.Engine.ctx) ->
        let id = ctx.id in
        outputs.(id) <-
          Feedback.run ~reps:2 ~my_id:id ~rng:ctx.rng ~channels ~witnesses
            ~witness_size:channels
            ~my_flag:(id < k * channels && flagged (id / channels)))
  in
  check Alcotest.int "rounds = k * reps" (k * 2) result.Radio.Engine.rounds_used;
  Array.iteri
    (fun id d -> check (Alcotest.list Alcotest.int) (Printf.sprintf "node %d" id) expected d)
    outputs

(* Three consecutive feedback runs per node, each with its own flags.
   Returns each node's (D, round at return) per run; [observe] wraps the
   adversary as an observer, which makes the engine decline every
   listener series, so each listener draws and hears its hops round by
   round. *)
let feedback_consecutive ~observe ~adversary =
  let channels = 2 and k = 3 and reps = 5 and runs = 3 in
  let n = (k * channels) + 6 in
  let cfg = Radio.Config.make ~seed:9L ~n ~channels ~t:1 () in
  let witnesses = Array.init k (fun r -> Array.init channels (fun i -> (r * channels) + i)) in
  let outputs = Array.make n [] in
  let adversary =
    let a = adversary () in
    if observe then { a with Radio.Adversary.observe = Some ignore } else a
  in
  let result =
    Radio.Engine.run_nodes cfg ~adversary (fun (ctx : Radio.Engine.ctx) ->
        let id = ctx.id in
        for run = 0 to runs - 1 do
          let my_flag = id < k * channels && ((id / channels) + run) mod 2 = 0 in
          let d =
            Feedback.run ~reps ~my_id:id ~rng:ctx.rng ~channels ~witnesses
              ~witness_size:channels ~my_flag
          in
          outputs.(id) <- outputs.(id) @ [ (d, Radio.Engine.current_round ()) ]
        done)
  in
  check Alcotest.int "rounds = runs * k * reps" (runs * k * reps)
    result.Radio.Engine.rounds_used;
  outputs

let feedback_parked_equals_declined () =
  (* Without an observer the listeners' series park in the engine, which
     draws their hops, and each listener stops reading at its first
     <true, r>; with one, the engine declines them.  Either way every node
     gets the same D at the same rounds, and the stream each node leaves
     behind (its next run's hops) agrees too. *)
  List.iter
    (fun (name, adversary) ->
      let parked = feedback_consecutive ~observe:false ~adversary in
      let declined = feedback_consecutive ~observe:true ~adversary in
      Array.iteri
        (fun id runs ->
          check
            (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) Alcotest.int))
            (Printf.sprintf "%s: node %d" name id) runs declined.(id))
        parked)
    [ ("null", fun () -> Radio.Adversary.null);
      ( "random jammer",
        fun () -> Radio.Adversary.random_jammer (Prng.Rng.create 4L) ~channels:2 ~budget:1 ) ]

let feedback_steady_state_allocation () =
  (* One listener against silent witnesses (their fibers return at once),
     so it reads all [reps] hops: after the first run, a run allocates a
     few dozen words per phase whatever [reps] is, engine work on its
     behalf included — no per-round word at all.  Measured: 82 words per
     run of k = 2 phases with a per-node hop buffer; 88 with the engine
     drawing the hops, whose view also names the hop store. *)
  let channels = 2 and k = 2 and reps = 200 and runs = 10 in
  let listener = k * channels in
  let cfg = Radio.Config.make ~seed:3L ~n:(listener + 1) ~channels ~t:1 () in
  let witnesses = Array.init k (fun r -> Array.init channels (fun i -> (r * channels) + i)) in
  let words = ref 0.0 in
  let _ =
    Radio.Engine.run_nodes cfg ~adversary:Radio.Adversary.null (fun (ctx : Radio.Engine.ctx) ->
        if ctx.id = listener then begin
          let feedback () =
            ignore
              (Feedback.run ~reps ~my_id:ctx.id ~rng:ctx.rng ~channels ~witnesses
                 ~witness_size:channels ~my_flag:false)
          in
          feedback ();
          let before = Gc.minor_words () in
          for _ = 1 to runs do
            feedback ()
          done;
          words := (Gc.minor_words () -. before) /. float_of_int runs
        end)
  in
  if !words > 96.0 then
    Alcotest.failf "a steady-state Feedback.run allocates %.1f words (reps = %d)" !words reps

(* Phase r's listener reads, counted through a wrapper of [Feedback]'s own
   read, against C witnesses sending [frame] on every channel for [reps]
   rounds: (reads, stopped). *)
let phase_reads ~adversary ~frame =
  let channels = 2 and reps = 86 and r = 5 in
  let cfg = Radio.Config.make ~seed:11L ~n:(channels + 1) ~channels ~t:1 () in
  let reads = ref 0 and stopped = ref false in
  let _ =
    Radio.Engine.run_nodes cfg ~adversary (fun (ctx : Radio.Engine.ctx) ->
        if ctx.id < channels then
          for _ = 1 to reps do
            Radio.Engine.transmit ~chan:ctx.id frame
          done
        else
          stopped :=
            Radio.Engine.listen_random ~rng:ctx.rng ~bound:channels ~len:reps
              ~f:(fun j heard ->
                incr reads;
                Feedback.keep_listening r j heard))
  in
  (!reads, !stopped)

let feedback_one_read_per_hit () =
  (* The answer of a phase is fixed by the first <true, r> a listener
     hears, so that is the last hop it reads: with every channel carrying
     <true, r>, one read; with <false> (or another phase's <true, r'>),
     all 86. *)
  let reads frame = phase_reads ~adversary:Radio.Adversary.null ~frame in
  check (Alcotest.pair Alcotest.int Alcotest.bool) "successful phase" (1, true)
    (reads (Radio.Frame.Feedback_true 5));
  check (Alcotest.pair Alcotest.int Alcotest.bool) "failed phase" (86, false)
    (reads Radio.Frame.Feedback_false);
  check (Alcotest.pair Alcotest.int Alcotest.bool) "another phase's <true>" (86, false)
    (reads (Radio.Frame.Feedback_true 4));
  (* A jammer striking one channel per round only delays the hit. *)
  let jammed, stopped =
    phase_reads
      ~adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 2L) ~channels:2 ~budget:1)
      ~frame:(Radio.Frame.Feedback_true 5)
  in
  check Alcotest.bool "jammed phase still stops" true stopped;
  if jammed < 1 || jammed > 86 then Alcotest.failf "jammed phase read %d hops" jammed

(* -- f-AME (Theorem 6) -- *)

let fame_delivers_without_adversary () =
  (* Even with no interference the game may strand a final tail of fewer
     than t+1 proposable items (Restriction 1 demands full proposals), so
     the clean-run guarantee is the same as the adversarial one: the failed
     set has vertex cover <= t.  Here (disjoint pairs) that means at most t
     failures. *)
  let t = 2 in
  let cfg = fame_cfg ~t () in
  let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:8 in
  let o = Fame.run ~cfg ~pairs ~messages ~adversary:null_adversary () in
  check Alcotest.bool "at most t stranded" true (List.length o.Fame.failed <= t);
  check Alcotest.bool "no divergence" false o.Fame.diverged;
  (match o.Fame.disruption_vc with
   | Some vc -> check Alcotest.bool "residue coverable by t" true (vc <= t)
   | None -> Alcotest.fail "vc computable");
  List.iter
    (fun (pair, body) -> check Alcotest.string "payload" (messages pair) body)
    o.Fame.delivered

let fame_t_disruptable_under_jamming () =
  List.iter
    (fun (t, seed) ->
      let cfg = fame_cfg ~t ~seed () in
      let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:(4 * t) in
      let o =
        Fame.run ~cfg ~pairs ~messages
          ~adversary:(fun board ->
            Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t
              ~prefer:Attacks.Prefer_edges)
          ()
      in
      check Alcotest.bool "no divergence" false o.Fame.diverged;
      match o.Fame.disruption_vc with
      | Some vc ->
        check Alcotest.bool (Printf.sprintf "t=%d vc=%d <= t" t vc) true (vc <= t)
      | None -> Alcotest.fail "vc should be computable")
    [ (1, 2L); (2, 3L); (3, 4L); (2, 5L); (2, 6L) ]

let fame_authentic_under_spoofing () =
  let t = 2 in
  let cfg = fame_cfg ~t ~seed:9L () in
  let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:6 in
  let o =
    Fame.run ~cfg ~pairs ~messages
      ~adversary:(fun _ ->
        Naive.simulating_adversary (Prng.Rng.create 21L) ~pairs ~channels:(t + 1) ~budget:t)
      ()
  in
  List.iter
    (fun (pair, body) -> check Alcotest.string "authentic payload" (messages pair) body)
    o.Fame.delivered;
  check Alcotest.int "no spoofed receptions at all" 0
    o.Fame.engine.Radio.Engine.stats.Radio.Transcript.Stats.spoofed_deliveries

let fame_sender_awareness () =
  let t = 2 in
  let cfg = fame_cfg ~t ~seed:12L () in
  let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:8 in
  let o =
    Fame.run ~cfg ~pairs ~messages
      ~adversary:(fun board ->
        Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t ~prefer:Attacks.Any)
      ()
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "confirmed = delivered" (List.map fst o.Fame.delivered) o.Fame.confirmed

let fame_deterministic () =
  let go () =
    let cfg = fame_cfg ~t:1 ~seed:31L () in
    let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:5 in
    let o =
      Fame.run ~cfg ~pairs ~messages
        ~adversary:(fun board ->
          Attacks.schedule_jammer board ~channels:2 ~budget:1 ~prefer:Attacks.Prefer_edges)
        ()
    in
    (o.Fame.delivered, o.Fame.failed, o.Fame.engine.Radio.Engine.rounds_used)
  in
  let a = go () and b = go () in
  check Alcotest.bool "reruns identical" true (a = b)

let fame_validates_arguments () =
  let cfg = fame_cfg ~t:2 () in
  let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:4 in
  (try
     ignore (Fame.run ~channels_used:2 ~cfg ~pairs ~messages ~adversary:null_adversary ());
     Alcotest.fail "proposal size <= t accepted"
   with Invalid_argument _ -> ());
  let small = Radio.Config.make ~n:10 ~channels:3 ~t:2 () in
  try
    ignore (Fame.run ~cfg:small ~pairs:[ (0, 1) ] ~messages ~adversary:null_adversary ());
    Alcotest.fail "tiny n accepted"
  with Invalid_argument _ -> ()

let fame_wide_channels_faster () =
  (* C = 2t must use fewer rounds than C = t+1 on the same workload. *)
  let t = 2 in
  let n =
    max
      (Params.nodes_required Params.default ~channels_used:(t + 1) ~budget:t
         ~channels:(t + 1))
      (Params.nodes_required Params.default ~channels_used:(2 * t) ~budget:t
         ~channels:(2 * t))
    + 6
  in
  let base =
    Radio.Config.make ~n ~channels:(t + 1) ~t ~seed:40L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let pairs = Workload.disjoint_pairs ~n ~count:8 in
  let narrow =
    Fame.run ~cfg:base ~pairs ~messages
      ~adversary:(fun board ->
        Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t ~prefer:Attacks.Any)
      ()
  in
  let wide_cfg =
    Radio.Config.make ~n ~channels:(2 * t) ~t ~seed:40L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let wide =
    Fame.run ~cfg:wide_cfg ~pairs ~messages
      ~adversary:(fun board ->
        Attacks.schedule_jammer board ~channels:(2 * t) ~budget:t ~prefer:Attacks.Any)
      ()
  in
  check Alcotest.bool "2t channels strictly faster" true
    (wide.Fame.engine.Radio.Engine.rounds_used < narrow.Fame.engine.Radio.Engine.rounds_used);
  check Alcotest.bool "wide run sound" false wide.Fame.diverged

let fame_tree_mode_works () =
  let t = 2 in
  let channels = 2 * t * t in
  let cfg =
    Radio.Config.make ~n:55 ~channels ~t ~seed:41L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let pairs = Workload.disjoint_pairs ~n:55 ~count:8 in
  let o =
    Fame.run ~channels_used:4 ~feedback_mode:Fame.Tree ~cfg ~pairs ~messages
      ~adversary:(fun board ->
        Attacks.schedule_jammer board ~channels ~budget:t ~prefer:Attacks.Prefer_edges)
      ()
  in
  check Alcotest.bool "tree mode sound" false o.Fame.diverged;
  (match o.Fame.disruption_vc with
   | Some vc -> check Alcotest.bool "tree vc <= t" true (vc <= t)
   | None -> Alcotest.fail "vc computable");
  List.iter
    (fun (pair, body) -> check Alcotest.string "tree payload" (messages pair) body)
    o.Fame.delivered

let fame_tree_mode_validation () =
  let t = 2 in
  let cfg = Radio.Config.make ~n:55 ~channels:8 ~t ~seed:1L () in
  try
    ignore
      (Fame.run ~channels_used:6 ~feedback_mode:Fame.Tree ~cfg ~pairs:[ (0, 1) ] ~messages
         ~adversary:null_adversary ());
    Alcotest.fail "non power-of-two accepted"
  with Invalid_argument _ -> ()

let fame_invariants_on_random_workloads =
  (* End-to-end property: for random workloads, seeds, and adversaries,
     every delivered payload is authentic, accounting adds up, and when the
     run did not hit a whp failure the disruption cover respects t. *)
  let gen =
    QCheck.Gen.(
      let* t = int_range 1 2 in
      let* seed = int_range 1 100_000 in
      let* pair_count = int_range 1 6 in
      let* adversary_kind = int_range 0 2 in
      return (t, seed, pair_count, adversary_kind))
  in
  let arb =
    QCheck.make
      ~print:(fun (t, seed, k, a) -> Printf.sprintf "t=%d seed=%d pairs=%d adv=%d" t seed k a)
      gen
  in
  QCheck.Test.make ~name:"fame invariants on random workloads" ~count:25 arb
    (fun (t, seed, pair_count, adversary_kind) ->
      let channels = t + 1 in
      let n =
        Params.nodes_required Params.default ~channels_used:channels ~budget:t ~channels + 4
      in
      let rng = Prng.Rng.create (Int64.of_int seed) in
      let pairs = Workload.random_pairs rng ~n ~count:pair_count in
      let cfg =
        Radio.Config.make ~n ~channels ~t ~seed:(Int64.of_int (seed * 31))
          ~max_rounds:Radio.Config.default_max_rounds ()
      in
      let adversary board =
        match adversary_kind with
        | 0 -> Radio.Adversary.null
        | 1 ->
          Radio.Adversary.random_jammer (Prng.Rng.create (Int64.of_int (seed * 7)))
            ~channels ~budget:t
        | _ -> Attacks.schedule_jammer board ~channels ~budget:t ~prefer:Attacks.Prefer_edges
      in
      let o = Fame.run ~cfg ~pairs ~messages ~adversary () in
      let authentic =
        List.for_all (fun (pair, body) -> body = messages pair) o.Fame.delivered
      in
      let accounted =
        List.length o.Fame.delivered + List.length o.Fame.failed = List.length pairs
      in
      let cover_ok =
        o.Fame.diverged
        || (match o.Fame.disruption_vc with Some vc -> vc <= t | None -> false)
      in
      authentic && accounted && cover_ok)

(* Every observable field of an outcome, serialized canonically and hashed:
   the lists, the cover, the flags, the move and round counts, every
   [Stats] field, the transcript length and the per-channel usage. *)
let outcome_sha (o : Fame.outcome) =
  let r = o.Fame.engine in
  let s = r.Radio.Engine.stats in
  let b = Buffer.create 512 in
  List.iter (fun ((v, w), body) -> Printf.bprintf b "d%d-%d=%s;" v w body) o.Fame.delivered;
  List.iter (fun (v, w) -> Printf.bprintf b "c%d-%d;" v w) o.Fame.confirmed;
  List.iter (fun (v, w) -> Printf.bprintf b "f%d-%d;" v w) o.Fame.failed;
  Printf.bprintf b "vc=%s;diverged=%b;moves=%d;"
    (match o.Fame.disruption_vc with Some vc -> string_of_int vc | None -> "-")
    o.Fame.diverged o.Fame.moves;
  Printf.bprintf b "rounds=%d;completed=%b;transcript=%d;" r.Radio.Engine.rounds_used
    r.Radio.Engine.completed (List.length r.Radio.Engine.transcript);
  Printf.bprintf b "stats=%d,%d,%d,%d,%d,%d,%d,%d;" s.Radio.Transcript.Stats.rounds
    s.Radio.Transcript.Stats.honest_transmissions s.Radio.Transcript.Stats.deliveries
    s.Radio.Transcript.Stats.spoofed_deliveries s.Radio.Transcript.Stats.collisions
    s.Radio.Transcript.Stats.jammed_rounds s.Radio.Transcript.Stats.strikes
    s.Radio.Transcript.Stats.max_payload;
  let u = r.Radio.Engine.channel_usage in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.bprintf b "usage=%s/%s/%s"
    (ints u.Radio.Transcript.Channel_usage.deliveries)
    (ints u.Radio.Transcript.Channel_usage.collisions)
    (ints u.Radio.Transcript.Channel_usage.jammed);
  Crypto.Sha256.digest_hex (Buffer.contents b)

(* A low-beta feedback under a random jammer: too few repetitions, so
   listeners disagree on D often enough that some runs diverge.  At
   C = t + 1 a disagreeing listener mostly hears D empty; at C = 4, t = 1
   listeners also split between two non-empty D. *)
let jammed_low_beta ~t ~channels ~n ~beta ~seed =
  let cfg =
    Radio.Config.make ~n ~channels ~t ~seed:(Int64.of_int seed)
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  Fame.run
    ~ame_params:{ Params.default with Params.beta_feedback = beta }
    ~cfg ~pairs:(Workload.disjoint_pairs ~n ~count:8) ~messages
    ~adversary:(fun _ ->
      Experiments.Common.random_jam ~seed:(Int64.of_int (seed * 7)) ~channels ~budget:t)
    ()

(* The E13 shape: sources 0 and 1 fan out to 20..25 at t = 1, and the
   corrupted nodes 2..5 are the first watchers, hence the surrogates. *)
let byzantine corruption =
  let pairs =
    List.concat_map (fun v -> List.map (fun w -> (v, w)) [ 20; 21; 22; 23; 24; 25 ]) [ 0; 1 ]
  in
  let cfg =
    Radio.Config.make ~n:30 ~channels:2 ~t:1 ~seed:11L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  Fame.run ~corrupted:[ 2; 3; 4; 5 ] ~corruption ~cfg ~pairs ~messages
    ~adversary:(Experiments.Common.schedule_jam ~channels:2 ~budget:1)
    ()

let fame_outcome_pins () =
  (* Pinned on the per-fiber referee: a run's outcome must not depend on
     how the referee steps are computed. *)
  let jammed ~t ~channels ~n ~beta =
    let runs =
      List.init 6 (fun i ->
          let seed = i + 1 in
          ( Printf.sprintf "low-beta random jam t=%d C=%d seed %d" t channels seed,
            jammed_low_beta ~t ~channels ~n ~beta ~seed ))
    in
    let diverged = List.filter (fun (_, o) -> o.Fame.diverged) runs in
    check Alcotest.bool
      (Printf.sprintf "low-beta set at C=%d has diverged and clean runs" channels)
      true
      (diverged <> [] && List.length diverged < List.length runs);
    runs
  in
  let narrow = jammed ~t:2 ~channels:3 ~n:40 ~beta:1.0 in
  let wide = jammed ~t:1 ~channels:4 ~n:60 ~beta:0.6 in
  let forging = byzantine Fame.Forge_as_surrogate in
  check Alcotest.bool "a forged payload is delivered" true
    (List.exists (fun (pair, body) -> body <> messages pair) forging.Fame.delivered);
  let cut =
    let n = Params.nodes_required Params.default ~channels_used:3 ~budget:2 ~channels:3 + 6 in
    let cfg = Radio.Config.make ~n ~channels:3 ~t:2 ~seed:7L ~max_rounds:60 () in
    Fame.run ~cfg ~pairs:(Workload.disjoint_pairs ~n ~count:8) ~messages
      ~adversary:null_adversary ()
  in
  check Alcotest.bool "max_rounds cuts the run" false cut.Fame.engine.Radio.Engine.completed;
  let pins =
    [ ( "sequential C=t+1",
        (let cfg = fame_cfg ~t:2 ~seed:2L () in
         Fame.run ~cfg
           ~pairs:(Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:8)
           ~messages
           ~adversary:(fun board ->
             Attacks.schedule_jammer board ~channels:3 ~budget:2 ~prefer:Attacks.Prefer_edges)
           ()),
        "7de5890d46657665c56ae1827c3e95ae74a645f652b68e65dbde3597aa002542" );
      ( "sequential C=2t",
        (let cfg = fame_cfg ~t:2 ~channels:4 ~seed:40L () in
         Fame.run ~cfg
           ~pairs:(Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:8)
           ~messages
           ~adversary:(fun board ->
             Attacks.schedule_jammer board ~channels:4 ~budget:2 ~prefer:Attacks.Any)
           ()),
        "f10fbf4448cfbf95723ad34ad299aba6aaadf5bc8c2c47338822810805617460" );
      ( "tree C=2t^2",
        (let cfg =
           Radio.Config.make ~n:55 ~channels:8 ~t:2 ~seed:41L
             ~max_rounds:Radio.Config.default_max_rounds ()
         in
         Fame.run ~channels_used:4 ~feedback_mode:Fame.Tree ~cfg
           ~pairs:(Workload.disjoint_pairs ~n:55 ~count:8) ~messages
           ~adversary:(fun board ->
             Attacks.schedule_jammer board ~channels:8 ~budget:2 ~prefer:Attacks.Prefer_edges)
           ()),
        "f30cc4c8d2f0ee5a4798fb4efa01e3d3d698cbe80e5dea9cec386d894a9d41fd" );
      ( "forge as surrogate",
        forging,
        "900fb6ba436f457d9e13cc52216ce26996f3594aa805ff1273457da089a9b044" );
      ( "lie as witness",
        byzantine Fame.Lie_as_witness,
        "bb4b7c1b16990a4bb26e2e607c0f2de35f3564a29bdb200b25cfe89d6c2df7ea" );
      ( "observing jammer",
        (let cfg = fame_cfg ~t:1 ~seed:5L () in
         Fame.run ~cfg
           ~pairs:(Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:5)
           ~messages
           ~adversary:(fun _ ->
             Radio.Adversary.reactive_jammer (Prng.Rng.create 6L) ~channels:2 ~budget:1)
           ()),
        "c4dd322c114fbe82d2fdba1dfc3e99070ec3b9b05c51ad1239348af2de0a69a6" );
      ( "cut by max_rounds",
        cut,
        "4c095d8559fdf148a519899a8ab0001a54ffe319431ab4be6a22f04a5b30b0da" );
      (* Nodes end the game in different states with no other sign of
         trouble on the way: only the final-state digests flag it. *)
      ( "diverged at the final digests",
        jammed_low_beta ~t:1 ~channels:3 ~n:40 ~beta:0.6 ~seed:6,
        "f1ea378e2a46c0a56d5f5a4ec0c4eba840a467e02528caf990546d09189afefe" ) ]
    @ List.map2
        (fun (name, o) sha -> (name, o, sha))
        (narrow @ wide)
        [ "1c6e6290e66c0b69f2856c77a40f18e3138b6b6ba874f77efae001f0ebc12f22";
          "93e865ce94e60e812bceb6ca675e27a5400efceb25dfe3e51246dbeeece17477";
          "ab337c679f2a99558b7eaab1e595a07f3f348a014ca60c8e9bbaff013a3186e7";
          "8de0b380ccda22cfde3d35a9c3a300db6f70fb5db849c7a453eafaa086114a9d";
          "60abbbd10bd4af4614852996127f0f8a2c1f23c627c563711abd4af6edb602f6";
          "d16d8e543da82587c185cfc5c93005c2a0deafd228ee75ad4bfa38dd7eba3a81";
          "c24eca23039dd1d080719929611156591380611745c815dd7e190e31d9c9e290";
          "b7c1334efeb82ed7538be9afe4c8a7eb12d08b6c336538d30f02b3b4bbdf568a";
          "792cfecb61e8fed4acbf0be2d0b6b85da0ebcc63d104e1fe2e3d6b1d7f5d40cf";
          "4aede93c23a98709709ccd23a7924534dfe01cb99d13883d46c7e5d8194c6fe6";
          "22cec72e5555602255c2d3abd5a87c8c1e975396425214f58735a2484112fc63";
          "1722153cc0e2dbad8aaba9fb249c243fa327bcaa577dcf9ccafb2d1b145c008f" ]
  in
  List.iter (fun (name, o, sha) -> check Alcotest.string name sha (outcome_sha o)) pins

let fame_allocation_per_move () =
  (* Nodes in the same game state share one referee step, so a node-move
     costs the node's own radio and feedback work only: measured 157.0
     minor words, against 462.5 when every node rebuilt the proposal and
     schedule itself.  The direct play shares it the same way: 128.4,
     against 342.5 when each fiber built its own batch and schedule. *)
  let n = 8_000 in
  let cfg = Radio.Config.make ~n ~channels:2 ~t:1 ~seed:3L () in
  let per_move ~name ~play ~count =
    let pairs = Workload.disjoint_pairs ~n ~count in
    let before = Gc.minor_words () in
    let o = Fame.run ~play ~cfg ~pairs ~messages ~adversary:null_adversary () in
    let words = Gc.minor_words () -. before in
    check Alcotest.bool (name ^ ": clean run") false o.Fame.diverged;
    let per = words /. float_of_int (n * o.Fame.moves) in
    if per > 220.0 then
      Alcotest.failf "%s allocates %.1f minor words per node-move (%d moves)" name per
        o.Fame.moves
  in
  per_move ~name:"f-AME" ~play:Fame.Game ~count:4;
  per_move ~name:"direct" ~play:Fame.Direct ~count:16

let fame_promoted_per_listener_phase () =
  (* Words promoted per listener per feedback phase on a 2,000-node run
     (C = 2, t = 1, 4 disjoint pairs: 4 moves of 2 phases of 66 hops, with
     1,998 listeners in each phase), all of the run's promotions counted.
     Parked listeners outlive minor collections, so whatever a listener
     holds across its series is promoted: measured 24.8 words when each
     fiber kept a 66-int hop buffer for the run, 13.9 with the engine
     drawing the hops into its own store.  The minor heap is set to the
     default 256k words and emptied first, so the count is a fixed
     function of the code. *)
  let n = 2_000 in
  let cfg = Radio.Config.make ~n ~channels:2 ~t:1 ~seed:7L () in
  let pairs = Workload.disjoint_pairs ~n ~count:4 in
  let reps = Params.feedback_reps Params.default ~channels:2 ~budget:1 ~n in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 256 * 1024 };
  Fun.protect
    ~finally:(fun () -> Gc.set gc)
    (fun () ->
      ignore (Fame.run ~cfg ~pairs ~messages ~adversary:null_adversary ());
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.promoted_words in
      let o = Fame.run ~cfg ~pairs ~messages ~adversary:null_adversary () in
      let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
      check Alcotest.bool "clean run" false o.Fame.diverged;
      let phases = (o.Fame.engine.Radio.Engine.rounds_used - o.Fame.moves) / reps in
      check Alcotest.int "feedback phases" 8 phases;
      let per = promoted /. float_of_int (phases * (n - 2)) in
      if per > 16.0 then
        Alcotest.failf "%.1f words promoted per listener per phase (cap 16)" per)

(* -- tree feedback internals -- *)

let tree_pair_index_bijective () =
  (* At each level the pair indices of the lower endpoints enumerate
     0..groups/2-1 exactly once. *)
  let groups = 8 in
  for level = 0 to 2 do
    let lowers =
      List.filter (fun c -> c land (1 lsl level) = 0) (List.init groups Fun.id)
    in
    let indices = List.map (Tree_feedback.pair_index ~level) lowers in
    check
      (Alcotest.list Alcotest.int)
      (Printf.sprintf "level %d indices" level)
      (List.init (groups / 2) Fun.id)
      (List.sort compare indices)
  done

let tree_rounds_formula () =
  check Alcotest.int "(2*log2 8 + 2) * reps" ((2 * 3 + 2) * 5)
    (Tree_feedback.rounds_consumed ~groups:8 ~reps:5)

(* -- direct baseline -- *)

let direct_delivers_without_adversary () =
  (* The direct baseline stops when at most t node-disjoint edges remain
     schedulable (the adversary could then block every move); on a
     disjoint-pairs workload that strands at most t pairs. *)
  let t = 2 in
  let cfg = fame_cfg ~t ~seed:50L () in
  let pairs = Workload.disjoint_pairs ~n:cfg.Radio.Config.n ~count:8 in
  let o = Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages ~adversary:null_adversary () in
  check Alcotest.bool "at most t stranded" true (List.length o.Fame.failed <= t);
  check Alcotest.bool "delivered the rest" true (List.length o.Fame.delivered >= 8 - t);
  List.iter
    (fun (pair, body) -> check Alcotest.string "payload" (messages pair) body)
    o.Fame.delivered

let direct_rejects_self_loop () =
  let cfg = fame_cfg () in
  Alcotest.check_raises "self-loop pair" (Invalid_argument "Digraph: self-loop") (fun () ->
      ignore
        (Fame.run ~play:Fame.Direct ~cfg ~pairs:[ (0, 1); (2, 2) ] ~messages
           ~adversary:null_adversary ()))

let direct_triangle_lower_bound () =
  (* The Section 5 argument: t disjoint triangles, triangle-aware jamming,
     no surrogates -> disruption cover exactly 2t. *)
  List.iter
    (fun t ->
      let triples = List.init t (fun i -> [ 3 * i; (3 * i) + 1; (3 * i) + 2 ]) in
      let triple_of v = if v < 3 * t then Some (v / 3) else None in
      let pairs = List.concat_map Workload.complete_on triples in
      let cfg = fame_cfg ~t ~seed:(Int64.of_int (60 + t)) () in
      let o =
        Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages
          ~adversary:(fun board ->
            Attacks.triangle_jammer board ~channels:(t + 1) ~budget:t ~triple_of)
          ()
      in
      match o.Fame.disruption_vc with
      | Some vc -> check Alcotest.int (Printf.sprintf "t=%d cover is 2t" t) (2 * t) vc
      | None -> Alcotest.fail "vc computable")
    [ 1; 2 ]

(* A direct-exchange outcome, hashed like [outcome_sha] except for
   [max_payload]: that field is the largest frame sent, and a direct
   source's frame carries its whole vector m_v,*, so its size says
   nothing about what the exchange delivers. *)
let direct_sha (o : Fame.outcome) =
  let r = o.Fame.engine in
  let s = r.Radio.Engine.stats in
  let b = Buffer.create 512 in
  List.iter (fun ((v, w), body) -> Printf.bprintf b "d%d-%d=%s;" v w body) o.Fame.delivered;
  List.iter (fun (v, w) -> Printf.bprintf b "f%d-%d;" v w) o.Fame.failed;
  Printf.bprintf b "vc=%s;diverged=%b;moves=%d;"
    (match o.Fame.disruption_vc with Some vc -> string_of_int vc | None -> "-")
    o.Fame.diverged o.Fame.moves;
  Printf.bprintf b "rounds=%d;completed=%b;transcript=%d;" r.Radio.Engine.rounds_used
    r.Radio.Engine.completed (List.length r.Radio.Engine.transcript);
  Printf.bprintf b "stats=%d,%d,%d,%d,%d,%d,%d;" s.Radio.Transcript.Stats.rounds
    s.Radio.Transcript.Stats.honest_transmissions s.Radio.Transcript.Stats.deliveries
    s.Radio.Transcript.Stats.spoofed_deliveries s.Radio.Transcript.Stats.collisions
    s.Radio.Transcript.Stats.jammed_rounds s.Radio.Transcript.Stats.strikes;
  let u = r.Radio.Engine.channel_usage in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.bprintf b "usage=%s/%s/%s"
    (ints u.Radio.Transcript.Channel_usage.deliveries)
    (ints u.Radio.Transcript.Channel_usage.collisions)
    (ints u.Radio.Transcript.Channel_usage.jammed);
  Crypto.Sha256.digest_hex (Buffer.contents b)

let direct_outcome_pins () =
  (* Disjoint pairs under both jammers: many moves, each a full schedule,
     broadcast and feedback round. *)
  let disjoint =
    List.concat_map
      (fun t ->
        let channels = t + 1 in
        let n =
          max 24 (Experiments.Common.fame_nodes_for ~t ~channels_used:channels ~channels)
        in
        let cfg =
          Radio.Config.make ~seed:(Int64.of_int (80 + t)) ~n ~channels ~t
            ~max_rounds:Radio.Config.default_max_rounds ()
        in
        let pairs = Workload.disjoint_pairs ~n ~count:12 in
        [ ( Printf.sprintf "schedule jam t=%d" t,
            Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages
              ~adversary:(Experiments.Common.schedule_jam ~channels ~budget:t)
              () );
          ( Printf.sprintf "random jam t=%d" t,
            Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages
              ~adversary:(fun _ ->
                Experiments.Common.random_jam ~seed:(Int64.of_int (90 + t)) ~channels
                  ~budget:t)
              () ) ])
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, o) ->
      check Alcotest.bool (name ^ ": several moves") true (o.Fame.moves >= 4))
    disjoint;
  (* E13's direct rows: two sources fan out to 20..25 at t = 1, n = 30. *)
  let byzantine_shape =
    List.map
      (fun k ->
        let pairs =
          List.concat_map
            (fun v -> List.map (fun w -> (v, w)) [ 20; 21; 22; 23; 24; 25 ])
            [ 0; 1 ]
        in
        let cfg =
          Radio.Config.make ~n:30 ~channels:2 ~t:1 ~seed:(Int64.of_int (7 + k))
            ~max_rounds:Radio.Config.default_max_rounds ()
        in
        ( Printf.sprintf "E13 shape seed %d" (7 + k),
          Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages
            ~adversary:(Experiments.Common.schedule_jam ~channels:2 ~budget:1)
            () ))
      [ 0; 2; 4; 8 ]
  in
  (* E12's direct rows: t triangles leave at most t disjoint edges, so the
     run stops before its first move with cover 2t. *)
  let triangles =
    List.map
      (fun t ->
        let channels = t + 1 in
        let triples = List.init t (fun i -> [ 3 * i; (3 * i) + 1; (3 * i) + 2 ]) in
        let triple_of v = if v < 3 * t then Some (v / 3) else None in
        let pairs = List.concat_map Workload.complete_on triples in
        let n = Experiments.Common.fame_nodes_for ~t ~channels_used:channels ~channels in
        let cfg =
          Radio.Config.make ~seed:(Int64.of_int (500 + t)) ~n ~channels ~t
            ~max_rounds:Radio.Config.default_max_rounds ()
        in
        let o =
          Fame.run ~play:Fame.Direct ~cfg ~pairs ~messages
            ~adversary:(fun board ->
              Attacks.triangle_jammer board ~channels ~budget:t ~triple_of)
            ()
        in
        check Alcotest.int (Printf.sprintf "triangles t=%d: no move" t) 0 o.Fame.moves;
        check Alcotest.(option int)
          (Printf.sprintf "triangles t=%d: cover 2t" t)
          (Some (2 * t)) o.Fame.disruption_vc;
        (Printf.sprintf "E12 triangles t=%d" t, o))
      [ 1; 2; 3 ]
  in
  let pins =
    [ "6f4603bcec035d1bd82a3f4b3060dd26a1c5bbb4fd3dd79d0921b830ec2cdbc1";
      "29dbd21ded8f497cae9a48454bcad23530f6c684f91a6e2677c113cab7c1d14e";
      "9f2fd24be7961670d491d01697444c8afc8fe02dc6d371d38d479527a2cb7676";
      "e05a453dad69c74841e0e436f9e4e271bbbeadba0318fe8f552640cce8516b1a";
      "777a992d302032f7003fcba1c33fee950a1ed9e2cd881ffae7b91e0b6b65ce55";
      "74673d1ac638fcbe89eb759fb592639101922fbb0c98a164e94ae557b97f1af1";
      "7f6e5f66289c385a9a8319e4ff0ebea720eb5cebbaf880860fcb2a7ad76d91e3";
      "8b494fa0ac0f406c49a37e70db4700b02264128a72adc8afbcf58866ee0190a3";
      "0ee1d7c86cb741abbd194b9972236137a6aaab7c844b08e95a8ec44e5297910f";
      "fc90e40c40c95e9b4527c22b083ad857d03b89cb7e1bffbaac43a011a705ac75";
      "a6c22812cb41d27ff0465ac767cd0f62e562b1ee9e3025b801209bebc727d8a1";
      "bed76ffe7347331ab1c96ba41de289f0c7030befd3d21c0dbaa5c65d9d9df69d";
      "5b43eba01f76ee73518b2e39a1837eef378f1b9b2cf582aca9e40fd7ffac1516" ]
  in
  List.iter2
    (fun (name, o) sha -> check Alcotest.string name sha (direct_sha o))
    (disjoint @ byzantine_shape @ triangles)
    pins

let fame_beats_triangle_adversary () =
  let t = 2 in
  let triples = List.init t (fun i -> [ 3 * i; (3 * i) + 1; (3 * i) + 2 ]) in
  let triple_of v = if v < 3 * t then Some (v / 3) else None in
  let pairs = List.concat_map Workload.complete_on triples in
  let cfg = fame_cfg ~t ~seed:70L () in
  let o =
    Fame.run ~cfg ~pairs ~messages
      ~adversary:(fun board ->
        Attacks.triangle_jammer board ~channels:(t + 1) ~budget:t ~triple_of)
      ()
  in
  match o.Fame.disruption_vc with
  | Some vc -> check Alcotest.bool "surrogates beat triangles" true (vc <= t)
  | None -> Alcotest.fail "vc computable"

(* -- naive protocol (Theorem 2) -- *)

let naive_genuine_without_adversary () =
  let t = 2 in
  let cfg = Radio.Config.make ~n:12 ~channels:(t + 1) ~t ~seed:80L () in
  let pairs = Workload.disjoint_pairs ~n:12 ~count:3 in
  let o = Naive.run ~rounds:200 ~cfg ~pairs ~messages ~adversary:Radio.Adversary.null () in
  check Alcotest.int "all genuine" 3 o.Naive.genuine;
  check Alcotest.int "none fooled" 0 o.Naive.fooled

let naive_fooled_by_simulation () =
  let t = 2 in
  let fooled = ref 0 in
  for seed = 1 to 20 do
    let cfg = Radio.Config.make ~n:12 ~channels:(t + 1) ~t ~seed:(Int64.of_int seed) () in
    let pairs = Workload.disjoint_pairs ~n:12 ~count:t in
    let adversary =
      Naive.simulating_adversary
        (Prng.Rng.create (Int64.of_int (seed * 7)))
        ~pairs ~channels:(t + 1) ~budget:t
    in
    let o = Naive.run ~rounds:60 ~cfg ~pairs ~messages ~adversary () in
    fooled := !fooled + o.Naive.fooled
  done;
  check Alcotest.bool "simulating adversary fools some" true (!fooled > 5)

(* -- gossip baseline -- *)

let gossip_completes_cleanly () =
  let cfg = Radio.Config.make ~n:12 ~channels:2 ~t:1 ~seed:90L () in
  let o =
    Gossip.run ~cfg ~rumors:(Printf.sprintf "r%d") ~adversary:Radio.Adversary.null ()
  in
  check Alcotest.bool "completed" true (o.Gossip.rounds_to_completion <> None);
  check Alcotest.int "no fakes" 0 o.Gossip.fake_rumors_accepted

let gossip_accepts_fakes_under_spoofing () =
  let cfg = Radio.Config.make ~n:12 ~channels:2 ~t:1 ~seed:91L () in
  let adversary =
    Radio.Adversary.spoofer (Prng.Rng.create 17L) ~channels:2 ~budget:1
      ~forge:(fun ~round chan ->
        Radio.Frame.Vector { owner = chan; entries = [ (round mod 12, "FAKE") ] })
  in
  let o = Gossip.run ~cfg ~rumors:(Printf.sprintf "r%d") ~adversary () in
  check Alcotest.bool "gossip is spoofable" true (o.Gossip.fake_rumors_accepted > 0)

(* A gossip outcome hashed: completion and engine rounds, every [Stats]
   field (the payload maximum reads the rumor vectors' size), the
   per-node coverage and the fake count.  Pinned so the node-state
   representation can change without moving a round. *)
let gossip_sha (o : Gossip.outcome) =
  let r = o.Gossip.engine in
  let s = r.Radio.Engine.stats in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Crypto.Sha256.digest_hex
    (Printf.sprintf
       "done=%s;rounds=%d;completed=%b;stats=%d,%d,%d,%d,%d,%d,%d,%d;cov=%s;fake=%d"
       (match o.Gossip.rounds_to_completion with Some r -> string_of_int r | None -> "-")
       r.Radio.Engine.rounds_used r.Radio.Engine.completed s.Radio.Transcript.Stats.rounds
       s.Radio.Transcript.Stats.honest_transmissions s.Radio.Transcript.Stats.deliveries
       s.Radio.Transcript.Stats.spoofed_deliveries s.Radio.Transcript.Stats.collisions
       s.Radio.Transcript.Stats.jammed_rounds s.Radio.Transcript.Stats.strikes
       s.Radio.Transcript.Stats.max_payload (ints o.Gossip.coverage)
       o.Gossip.fake_rumors_accepted)

let gossip_outcome_pins () =
  let spoofed ~n ~seed =
    let cfg = Radio.Config.make ~n ~channels:2 ~t:1 ~seed () in
    let adversary =
      Radio.Adversary.spoofer (Prng.Rng.create (Int64.of_int (n * 13))) ~channels:2 ~budget:1
        ~forge:(fun ~round chan ->
          Radio.Frame.Vector
            { owner = chan; entries = [ (round mod n, Printf.sprintf "FAKE-%d" round) ] })
    in
    Gossip.run ~cfg ~rumors:(Printf.sprintf "rumor-%d") ~adversary ()
  in
  let clean =
    Gossip.run
      ~cfg:(Radio.Config.make ~n:12 ~channels:2 ~t:1 ~seed:90L ())
      ~rumors:(Printf.sprintf "r%d") ~adversary:Radio.Adversary.null ()
  in
  List.iter
    (fun (name, o, sha) -> check Alcotest.string name sha (gossip_sha o))
    [ ( "clean n=12",
        clean,
        "9bf430677774ae0ee218106a6564f9fe772c96c33c7295dbb0df726ae0b4cb9a" );
      ( "spoofed n=20 (e10 quick)",
        spoofed ~n:20 ~seed:20L,
        "e1a93fa5c36bc925bd4b2a255c465dc41cf616cd4e06a6f77bcfbe0ed40e35d4" );
      ( "spoofed n=28",
        spoofed ~n:28 ~seed:28L,
        "b958764b125a4387480e46a0bf985d7770705c1c9d21d58aee4734e3c768584a" );
      ( "capped n=20",
        Gossip.run ~max_rounds:40
          ~cfg:(Radio.Config.make ~n:20 ~channels:2 ~t:1 ~seed:5L ())
          ~rumors:(Printf.sprintf "r%d") ~adversary:Radio.Adversary.null (),
        "636acc9999d6bb1ca63a58d874d4da88a8aa5be36901b5ba3d10bd1e20299647" ) ]

(* -- compact (Section 5.6) -- *)

let compact_calendar_layout () =
  let pairs = [ (0, 1); (0, 2); (3, 1) ] in
  let cal = Compact.make_calendar ~pairs ~budget:1 ~n:20 in
  check Alcotest.int "one epoch per edge" 3 (Array.length cal.Compact.epochs);
  (match Compact.epoch_of_round cal 0 with
   | Some ((0, 1), 0, 2) -> ()
   | _ -> Alcotest.fail "first epoch should be (0,1) index 0 of 2");
  (match Compact.epoch_of_round cal (cal.Compact.epoch_rounds * 2) with
   | Some ((3, 1), 0, 1) -> ()
   | _ -> Alcotest.fail "third epoch should be (3,1)");
  check Alcotest.bool "past the end" true
    (Compact.epoch_of_round cal (cal.Compact.epoch_rounds * 3) = None)

let compact_hashes_separate () =
  check Alcotest.bool "H1 <> H2 on same input" true
    (Compact.hash_chain [ "a"; "b" ] <> Compact.vector_signature [ "a"; "b" ]);
  check Alcotest.bool "chain encoding is injective-ish" true
    (Compact.hash_chain [ "ab"; "c" ] <> Compact.hash_chain [ "a"; "bc" ])

let compact_end_to_end_under_spoof_flood () =
  let t = 1 in
  let cfg =
    Radio.Config.make ~n:24 ~channels:2 ~t ~seed:95L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let sources = [ 0; 1; 2; 3 ] and dests = [ 10; 11; 12 ] in
  let pairs = List.concat_map (fun v -> List.map (fun w -> (v, w)) dests) sources in
  let o =
    Compact.run ~cfg ~pairs ~messages
      ~gossip_adversary:(fun cal ->
        Compact.chain_spoofer (Prng.Rng.create 7L) cal ~channels:2 ~budget:t)
      ~fame_adversary:(fun board ->
        Attacks.schedule_jammer board ~channels:2 ~budget:t ~prefer:Attacks.Any)
      ()
  in
  check Alcotest.int "spoof flood defeated" 0 o.Compact.reconstruction_failures;
  List.iter
    (fun (pair, body) -> check Alcotest.string "reconstructed payload" (messages pair) body)
    o.Compact.delivered;
  check Alcotest.bool "some deliveries happened" true (List.length o.Compact.delivered > 0)

let compact_frames_constant_size () =
  (* Frame size must not grow with fan-out. *)
  let t = 1 in
  let run_fan k =
    let dests = List.init k (fun i -> 10 + i) in
    let pairs = List.map (fun w -> (0, w)) dests @ List.map (fun w -> (1, w)) dests in
    let cfg =
      Radio.Config.make ~n:(16 + k) ~channels:2 ~t ~seed:96L
        ~max_rounds:Radio.Config.default_max_rounds ()
    in
    let o =
      Compact.run ~cfg ~pairs ~messages
        ~gossip_adversary:(fun _ -> Radio.Adversary.null)
        ~fame_adversary:null_adversary ()
    in
    o.Compact.max_honest_payload
  in
  let small = run_fan 2 and large = run_fan 8 in
  check Alcotest.int "payload independent of fan-out" small large

(* -- attacks -- *)

let triangle_jammer_targets_only_triples () =
  let board = Oracle.create () in
  Oracle.post board ~round:5
    { Oracle.channels_in_use = [ 0; 1; 2 ];
      kinds = [ (0, Oracle.Edge_item (0, 1)); (1, Oracle.Edge_item (0, 4));
                (2, Oracle.Node_item 7) ] };
  let adversary =
    Attacks.triangle_jammer board ~channels:3 ~budget:2 ~triple_of:(fun v ->
        if v < 3 then Some 0 else None)
  in
  match adversary.Radio.Adversary.act ~round:5 with
  | [ { Radio.Adversary.chan = 0; spoof = None } ] -> ()
  | strikes ->
    Alcotest.failf "expected only channel 0 jammed, got %d strikes" (List.length strikes)

let schedule_jammer_prefers_edges () =
  let board = Oracle.create () in
  Oracle.post board ~round:3
    { Oracle.channels_in_use = [ 0; 1; 2 ];
      kinds = [ (0, Oracle.Node_item 5); (1, Oracle.Edge_item (2, 3));
                (2, Oracle.Edge_item (4, 6)) ] };
  let adversary =
    Attacks.schedule_jammer board ~channels:3 ~budget:2 ~prefer:Attacks.Prefer_edges
  in
  let strikes = adversary.Radio.Adversary.act ~round:3 in
  let channels = List.map (fun s -> s.Radio.Adversary.chan) strikes in
  check (Alcotest.list Alcotest.int) "edges jammed first" [ 1; 2 ] (List.sort compare channels)

let () =
  Alcotest.run "ame"
    [ ( "params",
        [ Alcotest.test_case "reps monotone" `Quick params_reps_monotone;
          Alcotest.test_case "nodes required" `Quick params_nodes_required ] );
      ( "schedule",
        [ Alcotest.test_case "basic build" `Quick build_basic;
          Alcotest.test_case "surrogate substitution" `Quick build_uses_surrogate;
          Alcotest.test_case "missing surrogate diverges" `Quick
            build_divergence_on_missing_surrogate;
          Alcotest.test_case "node shortage diverges" `Quick build_divergence_when_nodes_short;
          Alcotest.test_case "deterministic" `Quick build_deterministic;
          Alcotest.test_case "role partition" `Quick roles_cover_everyone_once;
          Alcotest.test_case "witness lookup" `Quick witness_channel_lookup;
          QCheck_alcotest.to_alcotest schedule_invariants_on_random_proposals;
          QCheck_alcotest.to_alcotest schedule_index_matches_scan;
          Alcotest.test_case "oracle entry at k = 1e5" `Quick oracle_entry_huge_proposal ] );
      ( "feedback",
        [ Alcotest.test_case "agreement across seeds" `Quick feedback_agreement_across_seeds;
          Alcotest.test_case "round cost" `Quick feedback_round_cost;
          Alcotest.test_case "starved feedback fails" `Quick feedback_starved_fails_sometimes;
          Alcotest.test_case "64 witness groups" `Quick feedback_64_groups;
          Alcotest.test_case "parked = declined runs" `Quick feedback_parked_equals_declined;
          Alcotest.test_case "one read per successful phase" `Quick feedback_one_read_per_hit;
          Alcotest.test_case "steady-state allocation" `Quick
            feedback_steady_state_allocation ] );
      ( "fame",
        [ Alcotest.test_case "clean delivery" `Quick fame_delivers_without_adversary;
          Alcotest.test_case "t-disruptability" `Slow fame_t_disruptable_under_jamming;
          Alcotest.test_case "authentication under spoofing" `Quick
            fame_authentic_under_spoofing;
          Alcotest.test_case "sender awareness" `Quick fame_sender_awareness;
          Alcotest.test_case "deterministic" `Quick fame_deterministic;
          Alcotest.test_case "argument validation" `Quick fame_validates_arguments;
          Alcotest.test_case "C=2t faster" `Slow fame_wide_channels_faster;
          Alcotest.test_case "tree mode end-to-end" `Slow fame_tree_mode_works;
          Alcotest.test_case "tree mode validation" `Quick fame_tree_mode_validation;
          Alcotest.test_case "outcome pins" `Quick fame_outcome_pins;
          Alcotest.test_case "allocation per node-move" `Quick fame_allocation_per_move;
          Alcotest.test_case "promoted per listener phase" `Quick
            fame_promoted_per_listener_phase;
          QCheck_alcotest.to_alcotest fame_invariants_on_random_workloads ] );
      ( "tree-feedback",
        [ Alcotest.test_case "pair index bijective" `Quick tree_pair_index_bijective;
          Alcotest.test_case "round formula" `Quick tree_rounds_formula ] );
      ( "direct",
        [ Alcotest.test_case "clean delivery" `Quick direct_delivers_without_adversary;
          Alcotest.test_case "rejects self-loop pairs" `Quick direct_rejects_self_loop;
          Alcotest.test_case "triangle lower bound 2t" `Slow direct_triangle_lower_bound;
          Alcotest.test_case "outcome pins" `Quick direct_outcome_pins;
          Alcotest.test_case "fame beats triangles" `Slow fame_beats_triangle_adversary ] );
      ( "naive",
        [ Alcotest.test_case "genuine without adversary" `Quick
            naive_genuine_without_adversary;
          Alcotest.test_case "fooled by simulation" `Quick naive_fooled_by_simulation ] );
      ( "gossip",
        [ Alcotest.test_case "completes cleanly" `Quick gossip_completes_cleanly;
          Alcotest.test_case "spoofable" `Quick gossip_accepts_fakes_under_spoofing;
          Alcotest.test_case "outcome pins" `Quick gossip_outcome_pins ] );
      ( "compact",
        [ Alcotest.test_case "calendar layout" `Quick compact_calendar_layout;
          Alcotest.test_case "hash domains separate" `Quick compact_hashes_separate;
          Alcotest.test_case "end-to-end under spoof flood" `Slow
            compact_end_to_end_under_spoof_flood;
          Alcotest.test_case "constant frame size" `Slow compact_frames_constant_size ] );
      ( "attacks",
        [ Alcotest.test_case "triangle jammer selective" `Quick
            triangle_jammer_targets_only_triples;
          Alcotest.test_case "schedule jammer preference" `Quick
            schedule_jammer_prefers_edges ] ) ]
