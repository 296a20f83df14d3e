(* The Section 5.6 optimization: constant-size frames.

   Basic f-AME broadcasts whole message vectors, so a node with many
   destinations puts Theta(n) payloads in one frame.  The optimized protocol
   gossips individual messages tagged with reconstruction hashes, then uses
   f-AME only to authenticate a constant-size vector signature — even while
   a spoofer floods the gossip phase with fake candidates.

   Run with: dune exec examples/message_size.exe *)

let () =
  let t = 1 in
  let n = 24 in
  (* Four broadcasters each send to six destinations: vectors are large
     (6 payloads per frame in basic f-AME) while the exchange graph's vertex
     cover (4) comfortably exceeds t, so the adversary cannot blank it. *)
  let sources = [ 0; 1; 2; 3 ] in
  let dests = [ 10; 11; 12; 13; 14; 15 ] in
  let pairs = List.concat_map (fun v -> List.map (fun w -> (v, w)) dests) sources in
  let messages (v, w) = Printf.sprintf "bulk-payload-%02d-%02d-%s" v w (String.make 16 'x') in
  let cfg = Core.Radio.Config.make ~seed:9L ~n ~channels:(t + 1) ~t () in
  let fame_adversary board =
    Core.Ame.Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t
      ~prefer:Core.Ame.Attacks.Any
  in
  (* Basic f-AME: the hub's vector rides in one frame. *)
  let basic = Core.Ame.Fame.run ~cfg ~pairs ~messages ~adversary:fame_adversary () in
  Printf.printf
    "Basic f-AME:     delivered %d/%d, largest honest frame %4d bytes, \
     %6d rounds\n"
    (List.length basic.Core.Ame.Fame.delivered)
    (List.length pairs)
    basic.Core.Ame.Fame.engine.Core.Radio.Engine.stats.Core.Radio.Transcript.Stats.max_payload
    basic.Core.Ame.Fame.engine.Core.Radio.Engine.rounds_used;
  (* Optimized: gossip + reconstruction + vector signatures, spoof-flooded. *)
  let compact =
    Core.Ame.Compact.run ~cfg ~pairs ~messages
      ~gossip_adversary:(fun cal ->
        Core.Ame.Compact.chain_spoofer (Core.Prng.Rng.create 17L) cal ~channels:(t + 1)
          ~budget:t)
      ~fame_adversary ()
  in
  Printf.printf
    "Optimized (5.6): delivered %d/%d, largest honest frame %4d bytes, \
     %6d rounds\n"
    (List.length compact.Core.Ame.Compact.delivered)
    (List.length pairs) compact.Core.Ame.Compact.max_honest_payload
    (compact.Core.Ame.Compact.gossip_engine.Core.Radio.Engine.rounds_used
    + compact.Core.Ame.Compact.fame.Core.Ame.Fame.engine.Core.Radio.Engine.rounds_used);
  Printf.printf "Spoof flood absorbed: %d reconstruction failures\n"
    compact.Core.Ame.Compact.reconstruction_failures;
  List.iter
    (fun (pair, body) ->
      if body <> messages pair then
        Printf.printf "PAYLOAD CORRUPTION on (%d,%d)!\n" (fst pair) (snd pair))
    compact.Core.Ame.Compact.delivered
