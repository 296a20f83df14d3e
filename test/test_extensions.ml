(* Tests for the extension features built on the paper's Section 8
   discussion: re-keying after compromise, corrupted surrogates (Byzantine
   sketch), concurrent point-to-point channels, and the energy-bounded
   adversary model. *)

module Rekey = Groupkey.Rekey
module Protocol = Groupkey.Protocol
module Service = Secure_channel.Service
module Unicast = Secure_channel.Unicast

let check = Alcotest.check

let messages (v, w) = Printf.sprintf "m-%d-%d" v w

(* -- re-keying -- *)

let setup_once =
  lazy
    (let cfg = Radio.Config.make ~n:20 ~channels:2 ~t:1 ~seed:77L ~max_rounds:50_000_000 () in
     let outcome =
       Protocol.run ~cfg
         ~fame_adversary:(fun _ -> Radio.Adversary.null)
         ~hop_adversary:Radio.Adversary.null ()
     in
     (cfg, outcome))

let rekey_excludes_compromised () =
  let cfg, prev = Lazy.force setup_once in
  let rk =
    Rekey.run ~cfg ~previous:prev ~compromised:[ 7; 12 ]
      ~hop_adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 3L) ~channels:2 ~budget:1)
      ()
  in
  check Alcotest.int "compromised never learn the new key" 0 rk.Rekey.excluded_with_key;
  check Alcotest.bool "survivors agree" true (rk.Rekey.agreed_key_holders >= 20 - 2 - 1);
  check Alcotest.int "nobody wrong" 0 rk.Rekey.wrong_key_holders

let rekey_produces_fresh_key () =
  let cfg, prev = Lazy.force setup_once in
  let rk =
    Rekey.run ~cfg ~previous:prev ~compromised:[ 5 ] ~hop_adversary:Radio.Adversary.null ()
  in
  let old_key = prev.Protocol.nodes.(0).Protocol.group_key in
  check Alcotest.bool "new key exists" true (rk.Rekey.group_key.(0) <> None);
  check Alcotest.bool "new key differs" true (rk.Rekey.group_key.(0) <> old_key)

let rekey_cheaper_than_setup () =
  let cfg, prev = Lazy.force setup_once in
  let rk =
    Rekey.run ~cfg ~previous:prev ~compromised:[] ~hop_adversary:Radio.Adversary.null ()
  in
  check Alcotest.bool "skips part 1" true (rk.Rekey.rounds < prev.Protocol.total_rounds / 2)

let rekey_rejects_compromised_leader () =
  let cfg, prev = Lazy.force setup_once in
  try
    ignore
      (Rekey.run ~cfg ~previous:prev ~compromised:[ 0 ]
         ~hop_adversary:Radio.Adversary.null ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* -- corrupted surrogates (E13 behaviour) -- *)

let corrupted_surrogates_poison_fame () =
  let t = 1 in
  let pairs =
    List.concat_map (fun v -> List.map (fun w -> (v, w)) [ 20; 21; 22; 23 ]) [ 0; 1 ]
  in
  let cfg =
    Radio.Config.make ~n:30 ~channels:2 ~t ~seed:11L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let o =
    Ame.Fame.run ~corrupted:[ 2; 3; 4; 5 ] ~corruption:Ame.Fame.Forge_as_surrogate ~cfg
      ~pairs ~messages
      ~adversary:(fun _ -> Radio.Adversary.null) ()
  in
  let forged =
    List.filter (fun (pair, body) -> body <> messages pair) o.Ame.Fame.delivered
  in
  check Alcotest.bool "corrupt surrogates forge payloads" true (List.length forged > 0)

let lying_witnesses_break_agreement () =
  (* The deeper Byzantine problem: corrupted feedback witnesses contradict
     honest ones, so either nodes disagree on the referee response or the
     game removes undelivered edges -- measured as divergence or stranded
     deliveries.  This is why the paper leaves Byzantine t-disruptability
     open. *)
  let t = 1 in
  let pairs =
    List.concat_map (fun v -> List.map (fun w -> (v, w)) [ 20; 21; 22; 23 ]) [ 0; 1 ]
  in
  let cfg =
    Radio.Config.make ~n:30 ~channels:2 ~t ~seed:11L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let o =
    Ame.Fame.run ~corrupted:[ 2; 3; 4; 5 ] ~corruption:Ame.Fame.Lie_as_witness ~cfg ~pairs
      ~messages
      ~adversary:(fun _ -> Radio.Adversary.null) ()
  in
  Alcotest.(check bool) "protocol visibly damaged" true
    (o.Ame.Fame.diverged || List.length o.Ame.Fame.delivered < List.length pairs)

let direct_immune_to_corrupt_relays () =
  let t = 1 in
  let pairs =
    List.concat_map (fun v -> List.map (fun w -> (v, w)) [ 20; 21; 22; 23 ]) [ 0; 1 ]
  in
  let cfg =
    Radio.Config.make ~n:30 ~channels:2 ~t ~seed:11L
      ~max_rounds:Radio.Config.default_max_rounds ()
  in
  (* The direct play has no surrogates at all: no relay to corrupt. *)
  let o =
    Ame.Fame.run ~play:Ame.Fame.Direct ~cfg ~pairs ~messages
      ~adversary:(fun _ -> Radio.Adversary.null) ()
  in
  List.iter
    (fun (pair, body) -> check Alcotest.string "authentic" (messages pair) body)
    o.Ame.Fame.delivered

(* -- unicast streams -- *)

let pair_keys (v, w) = Crypto.Sha256.digest (Printf.sprintf "k-%d-%d" (min v w) (max v w))

let unicast_delivers_concurrently () =
  let cfg = Radio.Config.make ~n:16 ~channels:4 ~t:1 ~seed:5L () in
  let streams =
    List.init 3 (fun i ->
        { Unicast.sender = 2 * i; receiver = (2 * i) + 1;
          payloads = [ "a"; "b"; "c" ] })
  in
  let o =
    Unicast.run_streams ~cfg ~keys:pair_keys ~streams
      ~adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 2L) ~channels:4 ~budget:1)
      ()
  in
  check Alcotest.int "all delivered" 9 o.Unicast.delivered_total;
  List.iter
    (fun (r : Unicast.stream_result) ->
      List.iteri
        (fun seq payload ->
          check
            (Alcotest.option Alcotest.string)
            "payload intact" (Some payload)
            (List.assoc_opt seq r.Unicast.received))
        r.Unicast.stream.Unicast.payloads)
    o.Unicast.results

let unicast_rejects_overlap () =
  let cfg = Radio.Config.make ~n:16 ~channels:4 ~t:1 ~seed:5L () in
  let streams =
    [ { Unicast.sender = 0; receiver = 1; payloads = [ "x" ] };
      { Unicast.sender = 1; receiver = 2; payloads = [ "y" ] } ]
  in
  try
    ignore
      (Unicast.run_streams ~cfg ~keys:pair_keys ~streams ~adversary:Radio.Adversary.null ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let unicast_hop_is_pair_private () =
  let cfg = Radio.Config.make ~n:16 ~channels:4 ~t:1 ~seed:5L () in
  let s1 = Unicast.make_spec ~key:(pair_keys (0, 1)) ~cfg in
  let s2 = Unicast.make_spec ~key:(pair_keys (2, 3)) ~cfg in
  let broadcast = Service.make_spec ~key:(pair_keys (0, 1)) ~cfg in
  let differs a b =
    List.exists
      (fun round -> Service.hop a ~round <> Service.hop b ~round)
      (List.init 51 Fun.id)
  in
  check Alcotest.bool "distinct pairs hop differently" true (differs s1 s2);
  check Alcotest.bool "pairwise hops are domain-separated from the broadcast service's" true
    (differs s1 broadcast)

(* Exact per-stream deliveries on two channels under a random jammer:
   stream 2 loses two of its four payloads. *)
let unicast_received_pinned () =
  let cfg = Radio.Config.make ~n:16 ~channels:2 ~t:1 ~seed:5L () in
  let streams =
    List.init 4 (fun i ->
        { Unicast.sender = 2 * i; receiver = (2 * i) + 1;
          payloads = List.init 4 (fun j -> Printf.sprintf "s%d-m%d" i j) })
  in
  let o =
    Unicast.run_streams ~cfg ~keys:pair_keys ~streams
      ~adversary:(Radio.Adversary.random_jammer (Prng.Rng.create 2L) ~channels:2 ~budget:1)
      ()
  in
  let all i = List.init 4 (fun j -> (j, Printf.sprintf "s%d-m%d" i j)) in
  check
    Alcotest.(list (list (pair int string)))
    "received per stream"
    [ all 0; all 1; [ (1, "s2-m1"); (2, "s2-m2") ]; all 3 ]
    (List.map (fun (r : Unicast.stream_result) -> r.Unicast.received) o.Unicast.results);
  check Alcotest.int "rounds" 128 o.Unicast.engine.Radio.Engine.rounds_used

(* The quick tier runs a single E14 configuration, so the full-tier table
   is pinned here: it covers every (C, pairs) cell of the pairwise path. *)
let unicast_e14_full_table () =
  let r = Experiments.Unicast_exp.e14 ~quick:false ~jobs:1 in
  let rows =
    List.concat_map
      (function Experiments.Common.Table { rows; _ } -> rows | _ -> [])
      r.Experiments.Common.blocks
  in
  check
    Alcotest.(list (list string))
    "C, pairs, offered, delivered, rate, rounds"
    [ [ "2"; "1"; "4"; "4"; "100%"; "128" ];
      [ "2"; "2"; "8"; "8"; "100%"; "128" ];
      [ "2"; "4"; "16"; "14"; "88%"; "128" ];
      [ "4"; "1"; "4"; "4"; "100%"; "128" ];
      [ "4"; "2"; "8"; "8"; "100%"; "128" ];
      [ "4"; "4"; "16"; "16"; "100%"; "128" ];
      [ "4"; "6"; "24"; "24"; "100%"; "128" ];
      [ "8"; "4"; "16"; "16"; "100%"; "128" ];
      [ "8"; "6"; "24"; "24"; "100%"; "128" ] ]
    rows

(* -- information-theoretic secret growing -- *)

let secret_bits_keys_match () =
  let cfg = Radio.Config.make ~n:6 ~channels:4 ~t:1 ~seed:41L () in
  let o = Ame.Secret_bits.run ~rounds:80 ~cfg ~sender:0 ~receiver:1 ~eavesdrop_channels:1 () in
  check Alcotest.bool "some values agreed" true (o.Ame.Secret_bits.agreed > 0);
  check Alcotest.bool "keys derived" true (o.Ame.Secret_bits.sender_key <> None);
  check Alcotest.bool "both sides derive the same key" true
    (o.Ame.Secret_bits.sender_key = o.Ame.Secret_bits.receiver_key)

let secret_bits_partial_eavesdropping () =
  (* With 1 of 4 channels monitored, capturing every agreed value is
     vanishingly unlikely once a handful of values are agreed. *)
  let breaches = ref 0 in
  for trial = 1 to 10 do
    let cfg = Radio.Config.make ~n:6 ~channels:4 ~t:1 ~seed:(Int64.of_int (trial * 3)) () in
    let o =
      Ame.Secret_bits.run ~rounds:80 ~cfg ~sender:0 ~receiver:1 ~eavesdrop_channels:1 ()
    in
    check Alcotest.bool "eavesdropper misses something" true
      (o.Ame.Secret_bits.overheard < o.Ame.Secret_bits.agreed);
    if o.Ame.Secret_bits.breached then incr breaches
  done;
  check Alcotest.int "no breach in 10 trials" 0 !breaches

let secret_bits_jamming_slows_but_preserves () =
  let cfg = Radio.Config.make ~n:6 ~channels:4 ~t:1 ~seed:42L () in
  let quiet =
    Ame.Secret_bits.run ~rounds:80 ~cfg ~sender:0 ~receiver:1 ~eavesdrop_channels:1 ()
  in
  let jammed =
    Ame.Secret_bits.run ~rounds:80 ~cfg ~sender:0 ~receiver:1 ~eavesdrop_channels:1
      ~jam_budget:1 ()
  in
  check Alcotest.bool "jamming reduces agreement" true
    (jammed.Ame.Secret_bits.agreed <= quiet.Ame.Secret_bits.agreed);
  check Alcotest.bool "keys still match" true
    (jammed.Ame.Secret_bits.sender_key = jammed.Ame.Secret_bits.receiver_key)

(* -- energy-bounded adversary -- *)

let energy_budget_respected () =
  let inner = Radio.Adversary.sweep_jammer ~channels:4 ~budget:2 in
  let bounded = Radio.Adversary.energy_bounded ~total:5 inner in
  let spent = ref 0 in
  for round = 0 to 9 do
    spent := !spent + List.length (bounded.Radio.Adversary.act ~round)
  done;
  check Alcotest.int "exactly the budget" 5 !spent;
  check Alcotest.int "silent afterwards" 0
    (List.length (bounded.Radio.Adversary.act ~round:100))

let energy_zero_is_silent () =
  let inner = Radio.Adversary.sweep_jammer ~channels:4 ~budget:2 in
  let bounded = Radio.Adversary.energy_bounded ~total:0 inner in
  check Alcotest.int "no strikes" 0 (List.length (bounded.Radio.Adversary.act ~round:0))

let energy_bounded_fame_stays_sound () =
  let t = 2 in
  let channels = t + 1 in
  let n =
    Ame.Params.nodes_required Ame.Params.default ~channels_used:channels ~budget:t
      ~channels
    + 6
  in
  let cfg =
    Radio.Config.make ~n ~channels ~t ~seed:13L ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let pairs = Rgraph.Workload.disjoint_pairs ~n ~count:8 in
  let o =
    Ame.Fame.run ~cfg ~pairs ~messages
      ~adversary:(fun board ->
        Radio.Adversary.energy_bounded ~total:60
          (Ame.Attacks.schedule_jammer board ~channels ~budget:t ~prefer:Ame.Attacks.Any))
      ()
  in
  check Alcotest.bool "no divergence" false o.Ame.Fame.diverged;
  (match o.Ame.Fame.disruption_vc with
   | Some vc -> check Alcotest.bool "vc within t" true (vc <= t)
   | None -> Alcotest.fail "vc computable");
  List.iter
    (fun (pair, body) -> check Alcotest.string "authentic" (messages pair) body)
    o.Ame.Fame.delivered

let () =
  Alcotest.run "extensions"
    [ ( "rekey",
        [ Alcotest.test_case "excludes compromised" `Slow rekey_excludes_compromised;
          Alcotest.test_case "fresh key" `Slow rekey_produces_fresh_key;
          Alcotest.test_case "cheaper than setup" `Slow rekey_cheaper_than_setup;
          Alcotest.test_case "rejects compromised leader" `Slow
            rekey_rejects_compromised_leader ] );
      ( "byzantine",
        [ Alcotest.test_case "corrupt surrogates poison f-AME" `Quick
            corrupted_surrogates_poison_fame;
          Alcotest.test_case "lying witnesses break agreement" `Quick
            lying_witnesses_break_agreement;
          Alcotest.test_case "direct exchange immune" `Quick
            direct_immune_to_corrupt_relays ] );
      ( "unicast",
        [ Alcotest.test_case "concurrent delivery" `Quick unicast_delivers_concurrently;
          Alcotest.test_case "rejects overlapping endpoints" `Quick unicast_rejects_overlap;
          Alcotest.test_case "pair-private hopping" `Quick unicast_hop_is_pair_private;
          Alcotest.test_case "full-tier e14 table" `Quick unicast_e14_full_table;
          Alcotest.test_case "received lists pinned" `Quick unicast_received_pinned ] );
      ( "secret-bits",
        [ Alcotest.test_case "keys match" `Quick secret_bits_keys_match;
          Alcotest.test_case "partial eavesdropping" `Quick secret_bits_partial_eavesdropping;
          Alcotest.test_case "jamming tolerated" `Quick
            secret_bits_jamming_slows_but_preserves ] );
      ( "energy",
        [ Alcotest.test_case "budget respected" `Quick energy_budget_respected;
          Alcotest.test_case "zero budget silent" `Quick energy_zero_is_silent;
          Alcotest.test_case "fame sound under bounded energy" `Quick
            energy_bounded_fame_stays_sound ] ) ]
