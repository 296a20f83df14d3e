(* Tests for the Section 7 long-lived secure channel: hopping, delivery,
   secrecy, authentication, t-reliability, and broadcast-collision
   semantics. *)

module Service = Secure_channel.Service

let check = Alcotest.check

let key = Crypto.Sha256.digest "test-group-key"

let make ?(t = 2) ?(n = 16) ?(seed = 3L) () =
  let cfg = Radio.Config.make ~n ~channels:(t + 1) ~t ~seed ~record_transcript:true () in
  (cfg, Service.make_spec ~key ~cfg)

let spec_shape () =
  let cfg, spec = make () in
  check Alcotest.int "channels copied" cfg.Radio.Config.channels spec.Service.channels;
  check Alcotest.bool "reps scale like t log n" true
    (spec.Service.reps >= 2 && spec.Service.reps < 200);
  let _, bigger = make ~t:3 ~n:64 () in
  check Alcotest.bool "reps grow with t and n" true (bigger.Service.reps > spec.Service.reps)

let hop_properties () =
  let _, spec = make () in
  for round = 0 to 200 do
    let c = Service.hop spec ~round in
    check Alcotest.bool "hop in range" true (c >= 0 && c < spec.Service.channels)
  done;
  check Alcotest.int "hop deterministic" (Service.hop spec ~round:17)
    (Service.hop spec ~round:17);
  (* The pattern must actually hop: over 60 rounds all channels appear. *)
  let seen = Array.make spec.Service.channels false in
  for round = 0 to 59 do
    seen.(Service.hop spec ~round) <- true
  done;
  check Alcotest.bool "all channels used" true (Array.for_all Fun.id seen)

let full_delivery_under_jamming () =
  let cfg, spec = make () in
  let holders = List.init 16 Fun.id in
  let sends = [ (0, 2, "alpha"); (1, 5, "beta"); (2, 9, "gamma") ] in
  let o =
    Service.run_workload ~cfg ~key_holders:holders ~spec ~sends
      ~adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 8L) ~channels:3 ~budget:2)
      ()
  in
  List.iter
    (fun (d : Service.delivery) ->
      check Alcotest.int
        (Printf.sprintf "er %d delivered to all" d.Service.emulated_round)
        15
        (List.length d.Service.received_by))
    o.Service.deliveries;
  check Alcotest.int "no leaks" 0 o.Service.plaintext_leaks;
  check Alcotest.int "no forgeries" 0 o.Service.forged_accepts

let outsiders_locked_out () =
  let cfg, spec = make () in
  (* Nodes 14, 15 lack the key. *)
  let holders = List.init 14 Fun.id in
  let sends = [ (0, 0, "secret broadcast") ] in
  let o =
    Service.run_workload ~cfg ~key_holders:holders ~spec ~sends
      ~adversary:Radio.Adversary.null ()
  in
  let d = List.hd o.Service.deliveries in
  check Alcotest.bool "outsider 14 hears nothing" false (List.mem 14 d.Service.received_by);
  check Alcotest.bool "outsider 15 hears nothing" false (List.mem 15 d.Service.received_by);
  check Alcotest.int "holders all hear" 13 (List.length d.Service.received_by)

let forged_frames_rejected () =
  let cfg, spec = make () in
  let holders = List.init 16 Fun.id in
  let sends = [ (0, 1, "real") ] in
  (* Spoofer floods Sealed-looking garbage on random channels. *)
  let forge ~round chan =
    ignore chan;
    Radio.Frame.Sealed (Printf.sprintf "garbage-%d" round)
  in
  let adversary =
    Radio.Adversary.spoofer (Prng.Rng.create 11L) ~channels:3 ~budget:2 ~forge
  in
  let o = Service.run_workload ~cfg ~key_holders:holders ~spec ~sends ~adversary () in
  check Alcotest.int "no forged accepts" 0 o.Service.forged_accepts;
  let d = List.hd o.Service.deliveries in
  check Alcotest.bool "real message still lands" true (List.length d.Service.received_by > 0)

let replayed_ciphertext_rejected () =
  (* A replay from a previous emulated round carries an old nonce; honest
     receivers key the stream by the round, so a replayed frame decrypts
     under the wrong keystream position... but MAC still verifies (the MAC
     covers nonce + body).  The receiver therefore *does* decrypt it back to
     the original payload: replay within the service reproduces an old
     authentic message, attributed to its true sender and seq, which
     run_workload counts via forged_accepts = 0 only when (seq, sender,
     msg) matches a genuine send.  This test pins that behaviour down. *)
  let cfg, spec = make () in
  let holders = List.init 16 Fun.id in
  let sends = [ (0, 1, "original") ] in
  let captured = ref None in
  let adversary =
    { Radio.Adversary.name = "replayer";
      act =
        (fun ~round:_ ->
          match !captured with
          | Some frame -> [ { Radio.Adversary.chan = 0; spoof = Some frame } ]
          | None -> []);
      observe =
        (fun record ->
          List.iter
            (fun (_, _, frame) ->
              match frame with Radio.Frame.Sealed _ -> captured := Some frame | _ -> ())
            record.Radio.Transcript.honest_tx);
      observes = true }
  in
  let o = Service.run_workload ~cfg ~key_holders:holders ~spec ~sends ~adversary () in
  (* A replayed authentic frame is not a forgery: it decodes to the original
     (sender, seq, msg) triple which matches a genuine send. *)
  check Alcotest.int "replay does not forge new content" 0 o.Service.forged_accepts

let concurrent_broadcasts_collide () =
  let cfg, spec = make () in
  let holders = List.init 16 Fun.id in
  (* Two senders in the same emulated round: both follow the same hopping
     pattern, so every repetition collides and nobody receives. *)
  let sends = [ (0, 1, "left"); (0, 2, "right") ] in
  let o =
    Service.run_workload ~cfg ~key_holders:holders ~spec ~sends
      ~adversary:Radio.Adversary.null ()
  in
  List.iter
    (fun (d : Service.delivery) ->
      check Alcotest.int "collision loses both" 0 (List.length d.Service.received_by))
    o.Service.deliveries

let sender_must_hold_key () =
  let cfg, spec = make () in
  try
    ignore
      (Service.run_workload ~cfg ~key_holders:[ 0; 1 ] ~spec ~sends:[ (0, 5, "x") ]
         ~adversary:Radio.Adversary.null ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* Exact outcome of the Core entry point under a random jammer, round 1's
   two senders colliding: receiver counts, repetitions and both flags. *)
let open_channel_pinned () =
  let r =
    Core.open_channel ~seed:5L ~t:1 ~n:16 ~attack:Core.Random_jam
      [ (0, 3, "alpha"); (1, 7, "beta"); (1, 9, "clash"); (2, 0, "gamma"); (4, 12, "delta") ]
  in
  check
    Alcotest.(list (pair (pair int int) (pair string int)))
    "deliveries"
    [ ((0, 3), ("alpha", 15)); ((1, 7), ("beta", 0)); ((1, 9), ("clash", 0));
      ((2, 0), ("gamma", 15)); ((4, 12), ("delta", 15)) ]
    (List.map (fun (er, s, m, c) -> ((er, s), (m, c))) r.Core.deliveries);
  check Alcotest.int "rounds per message" 32 r.Core.rounds_per_message;
  check Alcotest.bool "secrecy" true r.Core.secrecy_ok;
  check Alcotest.bool "authentication" true r.Core.authentication_ok

let () =
  Alcotest.run "secure_channel"
    [ ( "spec",
        [ Alcotest.test_case "shape" `Quick spec_shape;
          Alcotest.test_case "hop properties" `Quick hop_properties ] );
      ( "service",
        [ Alcotest.test_case "full delivery under jamming" `Quick full_delivery_under_jamming;
          Alcotest.test_case "outsiders locked out" `Quick outsiders_locked_out;
          Alcotest.test_case "forged frames rejected" `Quick forged_frames_rejected;
          Alcotest.test_case "replay is not a forgery" `Quick replayed_ciphertext_rejected;
          Alcotest.test_case "concurrent broadcasts collide" `Quick
            concurrent_broadcasts_collide;
          Alcotest.test_case "sender must hold key" `Quick sender_must_hold_key;
          Alcotest.test_case "open_channel pinned" `Quick open_channel_pinned ] ) ]
