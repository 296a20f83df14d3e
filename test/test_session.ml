(* Tests for the session layer (fragmentation/reassembly over the secure
   channel) and the transcript trace tooling. *)

module Session = Secure_channel.Session
module Service = Secure_channel.Service
module Trace = Radio.Trace

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* -- fragment codec -- *)

let fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip" ~count:200
    QCheck.(pair (int_range 1 32) (string_of_size (Gen.int_range 0 300)))
    (fun (mtu, message) ->
      let frags = Session.fragment ~mtu ~msg_id:7 message in
      let r = Session.create_reassembler () in
      let results = List.filter_map (fun f -> Session.feed r ~sender:3 f) frags in
      results = [ (7, message) ])

let fragment_out_of_order () =
  let frags = Session.fragment ~mtu:4 ~msg_id:1 "abcdefghijkl" in
  let r = Session.create_reassembler () in
  let shuffled = List.rev frags in
  let results = List.filter_map (fun f -> Session.feed r ~sender:0 f) shuffled in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "reassembles out of order"
    [ (1, "abcdefghijkl") ] results

let duplicates_suppressed () =
  let frags = Session.fragment ~mtu:4 ~msg_id:2 "hello world!" in
  let r = Session.create_reassembler () in
  let fed = frags @ frags @ frags in
  let results = List.filter_map (fun f -> Session.feed r ~sender:0 f) fed in
  check Alcotest.int "delivered exactly once" 1 (List.length results)

let senders_do_not_interfere () =
  let f1 = Session.fragment ~mtu:4 ~msg_id:0 "from-node-one" in
  let f2 = Session.fragment ~mtu:4 ~msg_id:0 "from-node-two" in
  let r = Session.create_reassembler () in
  (* Interleave two senders using the same msg_id. *)
  let feed sender f = Session.feed r ~sender f in
  let results =
    List.filter_map Fun.id
      (List.concat (List.map2 (fun a b -> [ feed 1 a; feed 2 b ]) f1 f2))
  in
  check Alcotest.int "both complete" 2 (List.length results);
  check Alcotest.bool "payloads intact" true
    (List.mem (0, "from-node-one") results && List.mem (0, "from-node-two") results)

let pending_tracks_progress () =
  let frags = Session.fragment ~mtu:4 ~msg_id:9 "0123456789abcdef" in
  let r = Session.create_reassembler () in
  (match frags with
   | first :: _ -> ignore (Session.feed r ~sender:5 first)
   | [] -> Alcotest.fail "no fragments");
  match Session.pending r with
  | [ (5, 9, 1, 4) ] -> ()
  | other ->
    Alcotest.failf "unexpected pending set (%d entries)" (List.length other)

let decode_rejects_garbage =
  QCheck.Test.make ~name:"decode_fragment rejects garbage" ~count:200
    (QCheck.string_of_size (QCheck.Gen.int_range 0 40))
    (fun junk ->
      match Session.decode_fragment junk with
      | None -> true
      | Some (msg_id, index, count, _) -> msg_id >= 0 && index < count)

(* -- end-to-end over the radio -- *)

let e2e_large_message_under_jamming () =
  let t = 1 in
  let cfg = Radio.Config.make ~n:12 ~channels:2 ~t ~seed:31L () in
  let key = Crypto.Sha256.digest "session-key" in
  let spec = Service.make_spec ~key ~cfg () in
  let holders = List.init 12 Fun.id in
  let big = String.init 300 (fun i -> Char.chr (32 + (i mod 90))) in
  let o =
    Session.run_workload ~cfg ~key_holders:holders ~spec ~mtu:32
      ~sends:[ (0, big); (5, "short follow-up") ]
      ~adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 6L) ~channels:2 ~budget:t)
      ()
  in
  check Alcotest.int "two messages scheduled" 2 (List.length o.Session.deliveries);
  List.iter
    (fun (d : Session.delivery) ->
      check Alcotest.int
        (Printf.sprintf "message %d reassembled by all" d.Session.msg_id)
        11
        (List.length d.Session.completed_by))
    o.Session.deliveries;
  check Alcotest.int "fragment count" (10 + 1) o.Session.fragments_sent

(* -- trace tooling -- *)

let recorded_run () =
  let cfg =
    Radio.Config.make ~n:4 ~channels:2 ~t:1 ~seed:3L ~record_transcript:true
      ~track_channels:true ()
  in
  let jam =
    { Radio.Adversary.name = "jam0";
      act = (fun ~round -> if round = 0 then [ { Radio.Adversary.chan = 1; spoof = None } ] else []);
      observe = (fun _ -> ()); observes = false }
  in
  Radio.Engine.run cfg ~adversary:jam
    [| (fun _ ->
         Radio.Engine.transmit ~chan:0 (Radio.Frame.Plain { src = 0; dst = 1; body = "x" });
         Radio.Engine.idle ());
       (fun _ ->
         ignore (Radio.Engine.listen ~chan:0);
         Radio.Engine.idle ());
       (fun _ -> Radio.Engine.idle_for 2);
       (fun _ -> Radio.Engine.idle_for 2) |]

let trace_renders () =
  let result = recorded_run () in
  let text = Format.asprintf "%a" (Trace.pp_rounds ~limit:10) result.Radio.Engine.transcript in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions delivery" true (contains text "delivered from 0")

let trace_csv_shape () =
  let result = recorded_run () in
  let csv = Trace.to_csv result.Radio.Engine.transcript in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* Header + 2 rounds x 2 channels. *)
  check Alcotest.int "row count" 5 (List.length lines);
  check Alcotest.bool "header" true
    (String.length (List.hd lines) > 0 && String.sub (List.hd lines) 0 5 = "round")

let trace_utilization () =
  let result = recorded_run () in
  match result.Radio.Engine.channel_usage with
  | None -> Alcotest.fail "track_channels on but no usage"
  | Some u ->
    let per_channel = Alcotest.(array int) in
    check per_channel "ch0 carried the frame to one listener" [| 1; 0 |]
      u.Radio.Transcript.Channel_usage.deliveries;
    check per_channel "ch1 jammed once" [| 0; 1 |] u.Radio.Transcript.Channel_usage.jammed;
    check per_channel "the jam is ch1's only collision" [| 0; 1 |]
      u.Radio.Transcript.Channel_usage.collisions;
    check Alcotest.int "no spoofs" 0
      result.Radio.Engine.stats.Radio.Transcript.Stats.spoofed_deliveries

let () =
  Alcotest.run "session"
    [ ( "codec",
        [ Alcotest.test_case "out of order" `Quick fragment_out_of_order;
          Alcotest.test_case "duplicates suppressed" `Quick duplicates_suppressed;
          Alcotest.test_case "senders independent" `Quick senders_do_not_interfere;
          Alcotest.test_case "pending progress" `Quick pending_tracks_progress;
          qcheck fragment_roundtrip;
          qcheck decode_rejects_garbage ] );
      ( "end-to-end",
        [ Alcotest.test_case "large message under jamming" `Quick e2e_large_message_under_jamming ] );
      ( "trace",
        [ Alcotest.test_case "renders" `Quick trace_renders;
          Alcotest.test_case "csv shape" `Quick trace_csv_shape;
          Alcotest.test_case "utilization" `Quick trace_utilization ] ) ]
