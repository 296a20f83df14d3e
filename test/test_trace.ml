(* Tests for the transcript trace tooling: round rendering, CSV export,
   and the engine's per-channel usage counters. *)

module Trace = Radio.Trace

let check = Alcotest.check

let recorded_run () =
  let cfg = Radio.Config.make ~n:4 ~channels:2 ~t:1 ~seed:3L ~record_transcript:true () in
  let jam =
    { Radio.Adversary.name = "jam0";
      act =
        (fun ~round ->
          if round = 0 then [ { Radio.Adversary.chan = 1; spoof = None } ] else []);
      observe = None }
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
  let u = result.Radio.Engine.channel_usage in
  let per_channel = Alcotest.(array int) in
  check per_channel "ch0 carried the frame to one listener" [| 1; 0 |]
    u.Radio.Transcript.Channel_usage.deliveries;
  check per_channel "ch1 jammed once" [| 0; 1 |] u.Radio.Transcript.Channel_usage.jammed;
  check per_channel "the jam is ch1's only collision" [| 0; 1 |]
    u.Radio.Transcript.Channel_usage.collisions;
  check Alcotest.int "no spoofs" 0
    result.Radio.Engine.stats.Radio.Transcript.Stats.spoofed_deliveries

let () =
  Alcotest.run "trace"
    [ ( "trace",
        [ Alcotest.test_case "renders" `Quick trace_renders;
          Alcotest.test_case "csv shape" `Quick trace_csv_shape;
          Alcotest.test_case "utilization" `Quick trace_utilization ] ) ]
