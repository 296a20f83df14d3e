(* Tests for the radio engine: the Section 3 model semantics must hold
   exactly, because every protocol guarantee is argued against them. *)

module Config = Radio.Config
module Frame = Radio.Frame
module Engine = Radio.Engine
module Adversary = Radio.Adversary
module Transcript = Radio.Transcript

let check = Alcotest.check

let plain src dst body = Frame.Plain { src; dst; body }

let base_cfg ?(n = 4) ?(channels = 2) ?(t = 1) ?(seed = 1L) ?(record = false) () =
  Config.make ~n ~channels ~t ~seed ~record_transcript:record ()

(* A tiny scripted-protocol helper: node i executes script.(i), a list of
   per-round thunk actions; results are collected in cells. *)
let run_script ?(adversary = Adversary.null) cfg scripts =
  Engine.run cfg ~adversary
    (Array.map (fun steps (_ : Engine.ctx) -> List.iter (fun step -> step ()) steps) scripts)

(* -- config validation -- *)

let config_validation () =
  Alcotest.check_raises "t >= channels"
    (Invalid_argument "Config.make: need 0 <= t < channels") (fun () ->
      ignore (Config.make ~n:4 ~channels:2 ~t:2 ()));
  Alcotest.check_raises "one channel"
    (Invalid_argument "Config.make: need at least 2 channels") (fun () ->
      ignore (Config.make ~n:4 ~channels:1 ~t:0 ()))

(* -- delivery semantics -- *)

let single_transmitter_delivers () =
  let cfg = base_cfg () in
  let received = ref None in
  let result =
    Engine.run cfg ~adversary:Adversary.null
      [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "hello"));
         (fun _ -> received := Engine.listen ~chan:0);
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ()) |]
  in
  check Alcotest.bool "completed" true result.Engine.completed;
  match !received with
  | Some (Frame.Plain { body; _ }) -> check Alcotest.string "payload" "hello" body
  | _ -> Alcotest.fail "expected delivery"

let two_transmitters_collide () =
  let cfg = base_cfg () in
  let received = ref (Some (plain 9 9 "sentinel")) in
  ignore
    (Engine.run cfg ~adversary:Adversary.null
       [| (fun _ -> Engine.transmit ~chan:0 (plain 0 3 "a"));
          (fun _ -> Engine.transmit ~chan:0 (plain 1 3 "b"));
          (fun _ -> Engine.idle ());
          (fun _ -> received := Engine.listen ~chan:0) |]);
  check Alcotest.bool "collision silences" true (!received = None)

let listener_on_other_channel_hears_nothing () =
  let cfg = base_cfg () in
  let received = ref (Some (plain 9 9 "sentinel")) in
  ignore
    (Engine.run cfg ~adversary:Adversary.null
       [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "x"));
          (fun _ -> received := Engine.listen ~chan:1);
          (fun _ -> Engine.idle ());
          (fun _ -> Engine.idle ()) |]);
  check Alcotest.bool "nothing on channel 1" true (!received = None)

let jam_blocks_delivery () =
  let cfg = base_cfg () in
  let jam_chan0 =
    { Adversary.name = "jam0";
      act = (fun ~round:_ -> [ { Adversary.chan = 0; spoof = None } ]);
      observe = None }
  in
  let received = ref (Some (plain 9 9 "sentinel")) in
  ignore
    (Engine.run cfg ~adversary:jam_chan0
       [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "x"));
          (fun _ -> received := Engine.listen ~chan:0);
          (fun _ -> Engine.idle ());
          (fun _ -> Engine.idle ()) |]);
  check Alcotest.bool "jammed" true (!received = None)

let spoof_lands_on_empty_channel () =
  let cfg = base_cfg () in
  let spoof =
    { Adversary.name = "spoof";
      act = (fun ~round:_ -> [ { Adversary.chan = 1; spoof = Some (plain 7 1 "fake") } ]);
      observe = None }
  in
  let received = ref None in
  ignore
    (Engine.run cfg ~adversary:spoof
       [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "real"));
          (fun _ -> received := Engine.listen ~chan:1);
          (fun _ -> Engine.idle ());
          (fun _ -> Engine.idle ()) |]);
  match !received with
  | Some (Frame.Plain { body = "fake"; _ }) -> ()
  | _ -> Alcotest.fail "spoof should deliver on an empty channel"

let spoof_collides_with_honest () =
  let cfg = base_cfg () in
  let spoof =
    { Adversary.name = "spoof";
      act = (fun ~round:_ -> [ { Adversary.chan = 0; spoof = Some (plain 7 1 "fake") } ]);
      observe = None }
  in
  let received = ref (Some (plain 9 9 "sentinel")) in
  ignore
    (Engine.run cfg ~adversary:spoof
       [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "real"));
          (fun _ -> received := Engine.listen ~chan:0);
          (fun _ -> Engine.idle ());
          (fun _ -> Engine.idle ()) |]);
  check Alcotest.bool "spoof on busy channel collides" true (!received = None)

let lone_jam_is_silence () =
  let cfg = base_cfg ~record:true () in
  let jam =
    { Adversary.name = "jam"; act = (fun ~round:_ -> [ { Adversary.chan = 0; spoof = None } ]);
      observe = None }
  in
  let received = ref (Some (plain 9 9 "sentinel")) in
  let result =
    Engine.run cfg ~adversary:jam
      [| (fun _ -> received := Engine.listen ~chan:0);
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ()) |]
  in
  check Alcotest.bool "noise is not a message" true (!received = None);
  match (List.hd result.Engine.transcript).Transcript.outcomes.(0) with
  | Transcript.Collision { jammed = true; _ } -> ()
  | _ -> Alcotest.fail "expected a jammed outcome"

let transmitter_learns_nothing () =
  (* No collision detection: a sender cannot tell if it was jammed. The API
     encodes this by returning unit; we assert both runs look identical from
     the sender's perspective via stats only. *)
  let jam =
    { Adversary.name = "jam"; act = (fun ~round:_ -> [ { Adversary.chan = 0; spoof = None } ]);
      observe = None }
  in
  let run adversary =
    let cfg = base_cfg () in
    Engine.run cfg ~adversary
      [| (fun _ -> Engine.transmit ~chan:0 (plain 0 1 "x"));
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ()) |]
  in
  let r1 = run Adversary.null and r2 = run jam in
  check Alcotest.int "same rounds either way" r1.Engine.rounds_used r2.Engine.rounds_used

let current_round_advances () =
  let cfg = base_cfg () in
  let rounds = ref [] in
  ignore
    (Engine.run cfg ~adversary:Adversary.null
       (Array.make 4 (fun (_ : Engine.ctx) ->
            for _ = 1 to 3 do
              rounds := Engine.current_round () :: !rounds;
              Engine.idle ()
            done)));
  let mine = List.rev (List.filteri (fun i _ -> i mod 4 = 0) !rounds) in
  ignore mine;
  check Alcotest.int "12 samples" 12 (List.length !rounds)

let max_rounds_aborts () =
  let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~max_rounds:5 () in
  let result =
    Engine.run cfg ~adversary:Adversary.null
      (Array.make 2 (fun (_ : Engine.ctx) ->
           while true do
             Engine.idle ()
           done))
  in
  check Alcotest.bool "not completed" false result.Engine.completed;
  check Alcotest.int "stopped at limit" 5 result.Engine.rounds_used

let determinism () =
  let go () =
    let cfg = base_cfg ~n:6 ~seed:33L () in
    let adversary = Adversary.random_jammer (Prng.Rng.create 5L) ~channels:2 ~budget:1 in
    let hits = ref 0 in
    ignore
      (Engine.run cfg ~adversary
         (Array.make 6 (fun (ctx : Engine.ctx) ->
              for _ = 1 to 40 do
                if ctx.Engine.id = 0 then Engine.transmit ~chan:0 (plain 0 1 "x")
                else begin
                  match Engine.listen ~chan:(Prng.Rng.int ctx.Engine.rng 2) with
                  | Some _ -> incr hits
                  | None -> ()
                end
              done)));
    !hits
  in
  check Alcotest.int "identical reruns" (go ()) (go ())

(* The engine skips round_record construction entirely when recording is
   off and the adversary does not observe; the aggregated stats must be
   identical on both paths, and the cheap path must keep the transcript
   empty. *)
let cheap_path_matches_record_path () =
  let run record =
    let cfg = base_cfg ~n:6 ~channels:3 ~t:1 ~seed:77L ~record () in
    let adversary = Adversary.sweep_jammer ~channels:3 ~budget:1 in
    Engine.run cfg ~adversary
      (Array.init 6 (fun id (ctx : Engine.ctx) ->
           for round = 1 to 25 do
             let chan = (round + id) mod 3 in
             if id mod 2 = 0 then Engine.transmit ~chan (plain id (id + 1) "m")
             else ignore (Engine.listen ~chan);
             ignore ctx
           done))
  in
  let off = run false and on = run true in
  let s (r : Engine.result) = r.Engine.stats in
  check Alcotest.int "rounds" (s on).Transcript.Stats.rounds (s off).Transcript.Stats.rounds;
  check Alcotest.int "honest tx" (s on).Transcript.Stats.honest_transmissions
    (s off).Transcript.Stats.honest_transmissions;
  check Alcotest.int "deliveries" (s on).Transcript.Stats.deliveries
    (s off).Transcript.Stats.deliveries;
  check Alcotest.int "spoofed" (s on).Transcript.Stats.spoofed_deliveries
    (s off).Transcript.Stats.spoofed_deliveries;
  check Alcotest.int "collisions" (s on).Transcript.Stats.collisions
    (s off).Transcript.Stats.collisions;
  check Alcotest.int "jammed" (s on).Transcript.Stats.jammed_rounds
    (s off).Transcript.Stats.jammed_rounds;
  check Alcotest.int "strikes" (s on).Transcript.Stats.strikes
    (s off).Transcript.Stats.strikes;
  check Alcotest.int "max payload" (s on).Transcript.Stats.max_payload
    (s off).Transcript.Stats.max_payload;
  check Alcotest.int "rounds_used" on.Engine.rounds_used off.Engine.rounds_used;
  check Alcotest.bool "cheap path records nothing" true (off.Engine.transcript = []);
  check Alcotest.int "record path keeps every round" on.Engine.rounds_used
    (List.length on.Engine.transcript)

let bad_channel_rejected () =
  let cfg = base_cfg () in
  (try
     ignore
       (Engine.run cfg ~adversary:Adversary.null
          [| (fun _ -> Engine.transmit ~chan:7 (plain 0 1 "x"));
             (fun _ -> Engine.idle ());
             (fun _ -> Engine.idle ());
             (fun _ -> Engine.idle ()) |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let wrong_node_count_rejected () =
  let cfg = base_cfg () in
  (try
     ignore (Engine.run cfg ~adversary:Adversary.null [| (fun _ -> ()) |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* -- adversary validation and strategies -- *)

let validate_budget () =
  let strikes =
    [ { Adversary.chan = 0; spoof = None }; { Adversary.chan = 1; spoof = None } ]
  in
  (* Over-budget strike lists are clamped from the end, not rejected: the
     model simply ignores transmissions beyond [t]. *)
  (match Adversary.validate ~channels:3 ~budget:1 strikes with
   | [ { Adversary.chan = 0; spoof = None } ] -> ()
   | _ -> Alcotest.fail "expected clamp to the first strike");
  check Alcotest.int "within budget ok" 2
    (List.length (Adversary.validate ~channels:3 ~budget:2 strikes));
  check Alcotest.int "zero budget silences" 0
    (List.length (Adversary.validate ~channels:3 ~budget:0 strikes));
  (* Clamping happens before per-strike checks: an invalid channel beyond
     the budget is dropped, not a model violation. *)
  let tail_invalid = strikes @ [ { Adversary.chan = 99; spoof = None } ] in
  check Alcotest.int "invalid channel beyond budget is clamped away" 2
    (List.length (Adversary.validate ~channels:3 ~budget:2 tail_invalid))

let validate_duplicate_channel () =
  let strikes =
    [ { Adversary.chan = 0; spoof = None }; { Adversary.chan = 0; spoof = None } ]
  in
  try
    ignore (Adversary.validate ~channels:3 ~budget:2 strikes);
    Alcotest.fail "expected duplicate rejection"
  with Invalid_argument _ -> ()

let strategies_respect_budget () =
  let channels = 4 and budget = 2 in
  let strategies =
    [ Adversary.null;
      Adversary.random_jammer (Prng.Rng.create 2L) ~channels ~budget;
      Adversary.sweep_jammer ~channels ~budget;
      Adversary.reactive_jammer (Prng.Rng.create 3L) ~channels ~budget;
      Adversary.spoofer (Prng.Rng.create 4L) ~channels ~budget
        ~forge:(fun ~round chan -> plain chan 0 (string_of_int round)) ]
  in
  List.iter
    (fun (s : Adversary.t) ->
      for round = 0 to 20 do
        let strikes = Adversary.validate ~channels ~budget (s.Adversary.act ~round) in
        check Alcotest.bool (s.Adversary.name ^ " within budget") true
          (List.length strikes <= budget)
      done)
    strategies

let reactive_jammer_follows_traffic () =
  let channels = 3 in
  let adversary = Adversary.reactive_jammer (Prng.Rng.create 6L) ~channels ~budget:1 in
  (* Feed an observation where channel 2 is the busiest, then expect the
     next strike there. *)
  (match adversary.Adversary.observe with
   | Some observe ->
     observe
       { Transcript.round = 0;
         honest_tx = [ (0, 2, plain 0 1 "a"); (1, 2, plain 1 0 "b"); (2, 0, plain 2 1 "c") ];
         listeners = [];
         strikes = [];
         outcomes = [| Transcript.Empty; Transcript.Empty; Transcript.Empty |] }
   | None -> Alcotest.fail "the reactive jammer must observe");
  match adversary.Adversary.act ~round:1 with
  | [ { Adversary.chan; _ } ] -> check Alcotest.int "targets busiest" 2 chan
  | _ -> Alcotest.fail "expected one strike"

(* -- transcript stats -- *)

let stats_capture_scenario () =
  let cfg = base_cfg ~n:4 ~record:true () in
  let result =
    run_script cfg
      [| [ (fun () -> Engine.transmit ~chan:0 (plain 0 1 "first"));
           (fun () -> Engine.transmit ~chan:1 (plain 0 2 "second")) ];
         [ (fun () -> ignore (Engine.listen ~chan:0));
           (fun () -> ignore (Engine.listen ~chan:1)) ];
         [ (fun () -> ignore (Engine.listen ~chan:0)); (fun () -> Engine.idle ()) ];
         [ (fun () -> Engine.idle ()); (fun () -> Engine.idle ()) ] |]
  in
  let stats = result.Engine.stats in
  check Alcotest.int "rounds" 2 stats.Transcript.Stats.rounds;
  check Alcotest.int "transmissions" 2 stats.Transcript.Stats.honest_transmissions;
  (* Round 1: two listeners on chan 0; round 2: one on chan 1. *)
  check Alcotest.int "receptions" 3 stats.Transcript.Stats.deliveries;
  check Alcotest.int "no spoofs" 0 stats.Transcript.Stats.spoofed_deliveries;
  check Alcotest.int "transcript recorded" 2 (List.length result.Engine.transcript)

let spoof_detection_in_transcript () =
  let cfg = base_cfg ~record:true () in
  let spoof =
    { Adversary.name = "spoof";
      act = (fun ~round:_ -> [ { Adversary.chan = 1; spoof = Some (plain 9 1 "fake") } ]);
      observe = None }
  in
  let result =
    Engine.run cfg ~adversary:spoof
      [| (fun _ -> ignore (Engine.listen ~chan:1));
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ()) |]
  in
  check Alcotest.int "spoofed delivery counted" 1
    result.Engine.stats.Transcript.Stats.spoofed_deliveries;
  check Alcotest.bool "record flags spoof" true
    (Transcript.spoof_delivered (List.hd result.Engine.transcript))

(* -- auditor -- *)

module Auditor = Radio.Auditor

let auditor_passes_engine_runs () =
  let cfg = base_cfg ~n:6 ~record:true ~seed:21L () in
  let adversary = Adversary.random_jammer (Prng.Rng.create 4L) ~channels:2 ~budget:1 in
  let result =
    Engine.run cfg ~adversary
      (Array.make 6 (fun (ctx : Engine.ctx) ->
           for _ = 1 to 30 do
             if ctx.Engine.id = 0 then Engine.transmit ~chan:0 (plain 0 1 "x")
             else ignore (Engine.listen ~chan:(Prng.Rng.int ctx.Engine.rng 2))
           done))
  in
  check (Alcotest.list Alcotest.string) "clean audit" []
    (List.map (fun v -> Format.asprintf "%a" Auditor.pp_violation v)
       (Auditor.check_model ~channels:2 ~budget:1 result.Engine.transcript))

let auditor_detects_forged_outcome () =
  (* Hand-build a record whose outcome contradicts its transmissions. *)
  let record =
    { Transcript.round = 3;
      honest_tx = [ (0, 0, plain 0 1 "x") ];
      listeners = [ (1, 0) ];
      strikes = [];
      outcomes = [| Transcript.Empty; Transcript.Empty |] }
  in
  check Alcotest.bool "violation reported" true
    (Auditor.check_model ~channels:2 ~budget:1 [ record ] <> [])

let auditor_detects_budget_violation () =
  let record =
    { Transcript.round = 0;
      honest_tx = [];
      listeners = [];
      strikes = [ (0, None); (1, None) ];
      outcomes =
        [| Transcript.Collision { transmitters = 1; jammed = true };
           Transcript.Collision { transmitters = 1; jammed = true } |] }
  in
  check Alcotest.bool "budget violation reported" true
    (List.exists
       (fun v -> v.Auditor.what = "2 strikes exceed budget 1")
       (Auditor.check_model ~channels:2 ~budget:1 [ record ]))

let auditor_flags_spoofed_deliveries () =
  let cfg = base_cfg ~record:true () in
  let spoof =
    { Adversary.name = "spoof";
      act = (fun ~round:_ -> [ { Adversary.chan = 1; spoof = Some (plain 9 1 "fake") } ]);
      observe = None }
  in
  let result =
    Engine.run cfg ~adversary:spoof
      [| (fun _ -> ignore (Engine.listen ~chan:1));
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ());
         (fun _ -> Engine.idle ()) |]
  in
  (* Model-conforming (spoofing is legal radio behaviour)... *)
  check Alcotest.int "model clean" 0
    (List.length (Auditor.check_model ~channels:2 ~budget:1 result.Engine.transcript));
  (* ...but the authentication property correctly fails. *)
  check Alcotest.bool "authentication check fires" true
    (Auditor.check_no_spoofed_delivery result.Engine.transcript <> [])

let () =
  Alcotest.run "radio"
    [ ( "config",
        [ Alcotest.test_case "validation" `Quick config_validation ] );
      ( "semantics",
        [ Alcotest.test_case "single transmitter delivers" `Quick single_transmitter_delivers;
          Alcotest.test_case "two transmitters collide" `Quick two_transmitters_collide;
          Alcotest.test_case "channel isolation" `Quick
            listener_on_other_channel_hears_nothing;
          Alcotest.test_case "jam blocks" `Quick jam_blocks_delivery;
          Alcotest.test_case "spoof on empty channel" `Quick spoof_lands_on_empty_channel;
          Alcotest.test_case "spoof on busy channel collides" `Quick
            spoof_collides_with_honest;
          Alcotest.test_case "lone jam is silence" `Quick lone_jam_is_silence;
          Alcotest.test_case "no collision detection" `Quick transmitter_learns_nothing ] );
      ( "engine",
        [ Alcotest.test_case "current_round" `Quick current_round_advances;
          Alcotest.test_case "max_rounds abort" `Quick max_rounds_aborts;
          Alcotest.test_case "determinism" `Quick determinism;
          Alcotest.test_case "cheap path = record path" `Quick cheap_path_matches_record_path;
          Alcotest.test_case "bad channel rejected" `Quick bad_channel_rejected;
          Alcotest.test_case "node count checked" `Quick wrong_node_count_rejected ] );
      ( "adversary",
        [ Alcotest.test_case "budget validation" `Quick validate_budget;
          Alcotest.test_case "duplicate channels rejected" `Quick validate_duplicate_channel;
          Alcotest.test_case "strategies respect budget" `Quick strategies_respect_budget;
          Alcotest.test_case "reactive follows traffic" `Quick
            reactive_jammer_follows_traffic ] );
      ( "transcript",
        [ Alcotest.test_case "stats capture scenario" `Quick stats_capture_scenario;
          Alcotest.test_case "spoof detection" `Quick spoof_detection_in_transcript ] );
      ( "auditor",
        [ Alcotest.test_case "engine runs audit clean" `Quick auditor_passes_engine_runs;
          Alcotest.test_case "forged outcome detected" `Quick auditor_detects_forged_outcome;
          Alcotest.test_case "budget violation detected" `Quick
            auditor_detects_budget_violation;
          Alcotest.test_case "spoofed delivery flagged" `Quick
            auditor_flags_spoofed_deliveries ] ) ]
