(* Tests for the Section 6 group-key protocol: pairwise key symmetry,
   leader completeness, and the all-but-t agreement guarantee. *)

module Protocol = Groupkey.Protocol

let check = Alcotest.check

let run_once ?(seed = 7L) ?(t = 1) ?(n = 20) ~fame_attack ~hop_attack () =
  let channels = t + 1 in
  let cfg = Radio.Config.make ~n ~channels ~t ~seed ~max_rounds:50_000_000 () in
  Protocol.run ~cfg ~fame_adversary:fame_attack ~hop_adversary:hop_attack ()

let null_fame (_ : Ame.Oracle.t) = Radio.Adversary.null

let basics () =
  check (Alcotest.list Alcotest.int) "reporters t=2" [ 3; 4; 5; 6; 7 ]
    (Protocol.reporters ~t:2)

let clean_run_everyone_agrees () =
  let o = run_once ~fame_attack:null_fame ~hop_attack:Radio.Adversary.null () in
  check Alcotest.int "everyone agrees" 20 o.Protocol.agreed_key_holders;
  check Alcotest.int "nobody wrong" 0 o.Protocol.wrong_key_holders;
  check Alcotest.int "nobody ignorant" 0 o.Protocol.no_key_holders;
  check Alcotest.bool "leader 0 complete" true (List.mem 0 o.Protocol.complete_leaders);
  check (Alcotest.list Alcotest.int) "t + 1 leaders, all complete" [ 0; 1 ]
    (List.sort Int.compare o.Protocol.complete_leaders)

let pairwise_keys_symmetric () =
  let o = run_once ~fame_attack:null_fame ~hop_attack:Radio.Adversary.null () in
  Array.iteri
    (fun v (r : Protocol.node_result) ->
      List.iter
        (fun (w, key) ->
          match List.assoc_opt v o.Protocol.nodes.(w).Protocol.pairwise with
          | Some key' ->
            check Alcotest.bool (Printf.sprintf "key %d<->%d symmetric" v w) true (key = key')
          | None -> Alcotest.failf "node %d lacks the key back to %d" w v)
        r.Protocol.pairwise)
    o.Protocol.nodes

let group_key_is_a_leader_proposal () =
  let o = run_once ~fame_attack:null_fame ~hop_attack:Radio.Adversary.null () in
  let leader0_key =
    List.assoc 0 o.Protocol.nodes.(0).Protocol.leader_keys
  in
  Array.iter
    (fun (r : Protocol.node_result) ->
      match r.Protocol.group_key with
      | Some k -> check Alcotest.bool "adopted smallest leader's key" true (k = leader0_key)
      | None -> Alcotest.fail "clean run should give everyone the key")
    o.Protocol.nodes

let jammed_run_meets_guarantee () =
  List.iter
    (fun seed ->
      let t = 1 and n = 20 in
      let o =
        run_once ~seed ~t ~n
          ~fame_attack:(fun board ->
            Ame.Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t
              ~prefer:Ame.Attacks.Prefer_edges)
          ~hop_attack:
            (Radio.Adversary.random_jammer
               (Prng.Rng.create (Int64.add seed 100L))
               ~channels:(t + 1) ~budget:t)
          ()
      in
      check Alcotest.bool
        (Printf.sprintf "seed %Ld: >= n-t agree" seed)
        true
        (o.Protocol.agreed_key_holders >= n - t);
      check Alcotest.int "nobody wrong" 0 o.Protocol.wrong_key_holders)
    [ 1L; 2L; 3L ]

let adversary_never_sees_key_material () =
  (* Every honest frame in parts 2-3 must be Sealed or a Report; leader key
     bytes never travel in the clear. *)
  let t = 1 and n = 20 in
  let channels = t + 1 in
  let cfg =
    Radio.Config.make ~n ~channels ~t ~seed:5L ~max_rounds:50_000_000
      ~record_transcript:true ()
  in
  let o =
    Protocol.run ~cfg ~fame_adversary:null_fame ~hop_adversary:Radio.Adversary.null ()
  in
  let leader_proposals =
    List.filter_map
      (fun (r : Protocol.node_result) ->
        match r.Protocol.leader_keys with (_, k) :: _ -> Some k | [] -> None)
      (Array.to_list o.Protocol.nodes)
  in
  List.iter
    (fun record ->
      List.iter
        (fun (_, _, frame) ->
          match frame with
          | Radio.Frame.Sealed _ | Radio.Frame.Report _ -> ()
          | Radio.Frame.Plain { body; _ } ->
            List.iter
              (fun k ->
                check Alcotest.bool "no key in plain frame" false (String.equal body k))
              leader_proposals
          | _ -> ())
        record.Radio.Transcript.honest_tx)
    o.Protocol.engine.Radio.Engine.transcript

let report_replay_attack_is_harmless () =
  (* Part-3 attack analysis: the adversary can replay Report frames it
     heard (even with forged reporter ids it cannot fabricate verifiable
     hashes it never saw).  Replays only amplify support for leaders whose
     keys honest nodes already hold, so the agreement guarantee must
     survive: >= n - t on one key, nobody wrong. *)
  let t = 1 and n = 20 in
  let heard : Radio.Frame.t list ref = ref [] in
  let forged_id = ref 100 in
  let replayer =
    { Radio.Adversary.name = "report-replayer";
      act =
        (fun ~round ->
          ignore round;
          match !heard with
          | Radio.Frame.Report { leader; key_hash; _ } :: _ ->
            incr forged_id;
            (* Replay with a forged reporter identity. *)
            [ { Radio.Adversary.chan = 0;
                spoof =
                  Some (Radio.Frame.Report { reporter = !forged_id; leader; key_hash }) } ]
          | _ -> []);
      observe =
        Some
          (fun record ->
            Array.iter
              (fun outcome ->
                match outcome with
                | Radio.Transcript.Delivered { frame = Radio.Frame.Report _ as f; _ } ->
                  heard := f :: !heard
                | _ -> ())
              record.Radio.Transcript.outcomes) }
  in
  let o = run_once ~seed:99L ~t ~n ~fame_attack:null_fame ~hop_attack:replayer () in
  check Alcotest.bool "agreement survives replay" true
    (o.Protocol.agreed_key_holders >= n - t);
  check Alcotest.int "nobody adopts a wrong key" 0 o.Protocol.wrong_key_holders

let deterministic () =
  let go () =
    let o = run_once ~fame_attack:null_fame ~hop_attack:Radio.Adversary.null () in
    (o.Protocol.agreed_key_holders, o.Protocol.total_rounds)
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "identical reruns" (go ()) (go ())

(* Every node's leader keys and group key, hashed: pins Part 2's frames
   and hops bit for bit, not only the agreement counts. *)
let digest_keys leader_keys group_key =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i keys ->
      Buffer.add_string b (Printf.sprintf "%d:" i);
      List.iter
        (fun (j, k) ->
          Buffer.add_string b (Printf.sprintf "%d=%s," j (Crypto.Sha256.hex_of k)))
        keys;
      Buffer.add_string b
        (match group_key.(i) with Some k -> Crypto.Sha256.hex_of k | None -> "-");
      Buffer.add_char b '\n')
    leader_keys;
  Crypto.Sha256.digest_hex (Buffer.contents b)

(* Exact outcomes of a setup and a re-key under a random hop jammer. *)
let pinned_under_hop_jammer () =
  let t = 1 and n = 20 in
  let cfg = Radio.Config.make ~n ~channels:(t + 1) ~t ~seed:7L ~max_rounds:50_000_000 () in
  let hop () =
    Radio.Adversary.random_jammer (Prng.Rng.create 3L) ~channels:(t + 1) ~budget:t
  in
  let o = Protocol.run ~cfg ~fame_adversary:null_fame ~hop_adversary:(hop ()) () in
  check
    Alcotest.(list int)
    "setup agreed, wrong, none, rounds" [ 20; 0; 0; 4031 ]
    [ o.Protocol.agreed_key_holders; o.Protocol.wrong_key_holders; o.Protocol.no_key_holders;
      o.Protocol.total_rounds ];
  check Alcotest.string "setup keys digest"
    "7d8588917d4089502ea93e86a5afdc86ba877d5b3184e998471ded629f2a3e1c"
    (digest_keys
       (Array.map (fun (r : Protocol.node_result) -> r.Protocol.leader_keys) o.Protocol.nodes)
       (Array.map (fun (r : Protocol.node_result) -> r.Protocol.group_key) o.Protocol.nodes));
  let rk =
    Groupkey.Rekey.run ~cfg ~previous:o ~compromised:[ 5; 11 ] ~hop_adversary:(hop ()) ()
  in
  check
    Alcotest.(list int)
    "re-key agreed, wrong, excluded with key, rounds" [ 18; 0; 0; 1400 ]
    [ rk.Groupkey.Rekey.agreed_key_holders; rk.Groupkey.Rekey.wrong_key_holders;
      rk.Groupkey.Rekey.excluded_with_key; rk.Groupkey.Rekey.rounds ];
  check Alcotest.string "re-key keys digest"
    "b9b50e2d957350ceb86eab3b94c89b1ab7540d651bc8bb12b1a46eb157bd30ef"
    (digest_keys (Array.make n []) rk.Groupkey.Rekey.group_key)

let () =
  Alcotest.run "groupkey"
    [ ( "protocol",
        [ Alcotest.test_case "basics" `Quick basics;
          Alcotest.test_case "clean run agrees" `Slow clean_run_everyone_agrees;
          Alcotest.test_case "pairwise symmetry" `Slow pairwise_keys_symmetric;
          Alcotest.test_case "adopts leader proposal" `Slow group_key_is_a_leader_proposal;
          Alcotest.test_case "jammed run meets guarantee" `Slow jammed_run_meets_guarantee;
          Alcotest.test_case "no key material leaks" `Slow adversary_never_sees_key_material;
          Alcotest.test_case "report replay is harmless" `Slow
            report_replay_attack_is_harmless;
          Alcotest.test_case "deterministic" `Slow deterministic;
          Alcotest.test_case "pinned under hop jammer" `Slow pinned_under_hop_jammer ] ) ]
