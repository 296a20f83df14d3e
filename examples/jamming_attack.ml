(* Why deterministic scheduling matters: the Theorem 2 attack in action.

   A purely randomized exchange protocol cannot authenticate: the adversary
   simulates each sender with a fake payload, and the receiver provably
   cannot tell them apart.  This example runs that attack against the naive
   protocol, then runs the same workload through f-AME, whose deterministic
   broadcast schedule makes every spoof collide with an honest transmission.

   Run with: dune exec examples/jamming_attack.exe *)

let () =
  let t = 3 in
  let n = 60 in
  (* 9 disjoint pairs: enough that f-AME must deliver most of them (its
     disruption graph may have vertex cover at most t = 3), while the
     adversary simulates the first t senders. *)
  let pairs = Core.Rgraph.Workload.disjoint_pairs ~n ~count:(3 * t) in
  let messages (v, w) = Printf.sprintf "secret-%d-%d" v w in
  Printf.printf "Theorem 2 attack: %d disjoint pairs, t = %d, C = %d\n\n"
    (List.length pairs) t (t + 1);
  (* Naive protocol vs the simulating adversary, many trials. *)
  let trials = 40 in
  let fooled = ref 0 and genuine = ref 0 and nothing = ref 0 in
  for trial = 1 to trials do
    let seed = Int64.of_int (trial * 7919) in
    let cfg = Core.Radio.Config.make ~seed ~n ~channels:(t + 1) ~t () in
    let adversary =
      Core.Ame.Naive.simulating_adversary
        (Core.Prng.Rng.create (Int64.of_int (trial * 104729)))
        ~pairs ~channels:(t + 1) ~budget:t
    in
    let r = Core.Ame.Naive.run ~rounds:80 ~cfg ~pairs ~messages ~adversary () in
    let attacked = List.filteri (fun i _ -> i < t) pairs in
    List.iter
      (fun (pair, verdict) ->
        if List.mem pair attacked then
          match verdict with
          | Core.Ame.Naive.Fooled -> incr fooled
          | Core.Ame.Naive.Genuine -> incr genuine
          | Core.Ame.Naive.Nothing -> incr nothing)
      r.verdicts
  done;
  (* The simulating adversary targets the first t pairs; those are the
     pair-trials whose outputs Theorem 2 constrains. *)
  let total = trials * t in
  Printf.printf "Naive randomized exchange (%d attacked pair-trials):\n" total;
  Printf.printf "  accepted the FAKE payload:    %d (%.0f%%)\n" !fooled
    (100.0 *. float_of_int !fooled /. float_of_int total);
  Printf.printf "  accepted the genuine payload: %d (%.0f%%)\n" !genuine
    (100.0 *. float_of_int !genuine /. float_of_int total);
  Printf.printf "  accepted nothing:             %d\n\n" !nothing;
  (* The same workload through f-AME: spoofs always collide. *)
  let cfg =
    Core.Radio.Config.make ~seed:5L ~n ~channels:(t + 1) ~t ~record_transcript:true ()
  in
  let adversary _board =
    Core.Ame.Naive.simulating_adversary (Core.Prng.Rng.create 99L) ~pairs ~channels:(t + 1)
      ~budget:t
  in
  let o = Core.Ame.Fame.run ~cfg ~pairs ~messages ~adversary () in
  let bad =
    List.filter (fun (pair, body) -> body <> messages pair) o.Core.Ame.Fame.delivered
  in
  Printf.printf "f-AME under the same simulating adversary:\n";
  Printf.printf "  delivered: %d / %d\n"
    (List.length o.Core.Ame.Fame.delivered)
    (List.length pairs);
  Printf.printf "  fake payloads accepted: %d (guarantee: 0)\n" (List.length bad);
  Printf.printf "  spoofed frames that reached any listener: %d\n"
    o.Core.Ame.Fame.engine.Core.Radio.Engine.stats
      .Core.Radio.Transcript.Stats.spoofed_deliveries
