(* Tests for the Section 7 long-lived secure channel: hopping, delivery,
   secrecy, authentication, t-reliability, and broadcast-collision
   semantics. *)

module Service = Secure_channel.Service
module Mux = Secure_channel.Mux

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

(* An adversary that replays the first [Sealed] frame it overhears on
   channel 0, every round after. *)
let replayer () =
  let captured = ref None in
  { Radio.Adversary.name = "replayer";
    act =
      (fun ~round:_ ->
        match !captured with
        | Some frame -> [ { Radio.Adversary.chan = 0; spoof = Some frame } ]
        | None -> []);
    observe =
      Some
        (fun record ->
          List.iter
            (fun (_, _, frame) ->
              match (frame, !captured) with
              | Radio.Frame.Sealed _, None -> captured := Some frame
              | _ -> ())
            record.Radio.Transcript.honest_tx) }

let replayed_ciphertext_rejected () =
  (* Node 1 broadcasts in emulated round 0; everyone then listens for three
     more emulated rounds while the replayer repeats round 0's first frame.
     Each copy is authentic but carries round 0's nonce, so [listen] drops
     it unopened: nothing is received after round 0.  When the link opened
     any authentic frame, [recv] returned "original" again in later
     rounds. *)
  let cfg, spec = make () in
  let first = ref 0 and late = ref 0 in
  let body (ctx : Radio.Engine.ctx) =
    for er = 0 to 3 do
      if er = 0 && ctx.Radio.Engine.id = 1 then
        Service.broadcast spec ~sender:1 ~seq:0 "original"
      else
        match Service.recv spec with
        | Some _ -> incr (if er = 0 then first else late)
        | None -> ()
    done
  in
  ignore (Radio.Engine.run_nodes cfg ~adversary:(replayer ()) body : Radio.Engine.result);
  check Alcotest.bool "round 0 is heard" true (!first > 0);
  check Alcotest.int "replays received" 0 !late;
  let o =
    Service.run_workload ~cfg ~key_holders:(List.init 16 Fun.id) ~spec
      ~sends:[ (0, 1, "original") ] ~adversary:(replayer ()) ()
  in
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

(* A node body sends once per emulated round and never before round 0, so
   a second send in one slot, or a send at a negative round, would never
   go on air: both are rejected rather than reported as lost deliveries. *)
let unsendable_sends_rejected () =
  let cfg, spec = make () in
  let holders = List.init 16 Fun.id in
  let rejected sends =
    match
      Service.run_workload ~cfg ~key_holders:holders ~spec ~sends
        ~adversary:Radio.Adversary.null ()
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "two sends by node 1 in round 0" true
    (rejected [ (0, 1, "first"); (1, 2, "other"); (0, 1, "second") ]);
  check Alcotest.bool "a send at round -1" true (rejected [ (-1, 1, "early"); (0, 2, "x") ]);
  check Alcotest.bool "two senders in one round stay legal" false
    (rejected [ (0, 1, "left"); (0, 2, "right") ])

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

(* -- nonce discipline ------------------------------------------------- *)

(* Wrap [a] to record every honest [Sealed] blob, with its sender. *)
let recording (a : Radio.Adversary.t) =
  let seen = ref [] in
  let observe record =
    Option.iter (fun inner -> inner record) a.Radio.Adversary.observe;
    List.iter
      (fun (node, _, frame) ->
        match frame with Radio.Frame.Sealed blob -> seen := (node, blob) :: !seen | _ -> ())
      record.Radio.Transcript.honest_tx
  in
  ({ a with Radio.Adversary.observe = Some observe }, seen)

(* No two distinct blobs share a (key, nonce), as [key_of] names them
   ([None] skips a blob), and some blob was checked. *)
let unique_nonces ~key_of blobs =
  let by_nonce = Hashtbl.create 1024 in
  let checked = ref 0 in
  List.iter
    (fun (node, blob) ->
      match key_of node blob with
      | None -> ()
      | Some (key, nonce) -> (
        incr checked;
        match Hashtbl.find_opt by_nonce (key, nonce) with
        | Some other when not (String.equal other blob) ->
          Alcotest.failf "two blobs under key %s, nonce %Lx" key nonce
        | Some _ -> ()
        | None -> Hashtbl.add by_nonce (key, nonce) blob))
    blobs;
  check Alcotest.bool "sealed frames seen" true (!checked > 0)

(* The sealed-hop runs below take every frame as sealed under one key, a
   stronger check than per key: Service's group key, Unicast's and Part
   2's pair keys alike. *)
let link_key _ blob =
  Option.map (fun n -> ("link", n)) (Crypto.Cipher.frame_nonce blob ~pos:0)

let nonces_service_collision () =
  (* Two key holders broadcast in emulated round 0, as in
     [concurrent_broadcasts_collide]. *)
  let cfg, spec = make () in
  let adversary, seen = recording Radio.Adversary.null in
  ignore
    (Service.run_workload ~cfg ~key_holders:(List.init 16 Fun.id) ~spec
       ~sends:[ (0, 1, "left"); (0, 2, "right"); (1, 3, "next") ]
       ~adversary ()
      : Service.outcome);
  unique_nonces ~key_of:link_key !seen

let nonces_unicast () =
  let cfg = Radio.Config.make ~n:16 ~channels:4 ~t:1 ~seed:5L () in
  let keys (v, w) = Crypto.Sha256.digest (Printf.sprintf "k-%d-%d" (min v w) (max v w)) in
  let streams =
    List.init 3 (fun i ->
        { Secure_channel.Unicast.sender = 2 * i; receiver = (2 * i) + 1;
          payloads = [ "a"; "b"; Printf.sprintf "c%d" i ] })
  in
  let adversary, seen = recording Radio.Adversary.null in
  ignore
    (Secure_channel.Unicast.run_streams ~cfg ~keys ~streams ~adversary ()
      : Secure_channel.Unicast.outcome);
  unique_nonces ~key_of:link_key !seen

let nonces_groupkey_part2 () =
  let cfg = Radio.Config.make ~n:20 ~channels:2 ~t:1 ~seed:7L ~max_rounds:50_000_000 () in
  let hop_adversary, seen = recording Radio.Adversary.null in
  ignore
    (Groupkey.Protocol.run ~cfg
       ~fame_adversary:(fun _ -> Radio.Adversary.null)
       ~hop_adversary ()
      : Groupkey.Protocol.outcome);
  unique_nonces ~key_of:link_key !seen

(* Setup and re-key share the pair keys, and each run's rounds start at
   0, so leader 0's epochs toward nodes below the compromised 5 fall on
   the same rounds in both runs.  Every Part 2 blob of either run is
   named by the key it truly opens under: the sender's pair links under
   both runs' configurations are tried in turn, and a link is named by a
   probe sealed under its cipher key, so links with one cipher key share
   a name whichever run built them. *)
let nonces_setup_then_rekey () =
  let cfg = Radio.Config.make ~n:20 ~channels:2 ~t:1 ~seed:7L ~max_rounds:50_000_000 () in
  let setup_adversary, setup_seen = recording Radio.Adversary.null in
  let setup =
    Groupkey.Protocol.run ~cfg
      ~fame_adversary:(fun _ -> Radio.Adversary.null)
      ~hop_adversary:setup_adversary ()
  in
  let rekey_adversary, rekey_seen = recording Radio.Adversary.null in
  ignore
    (Groupkey.Rekey.run ~cfg ~previous:setup ~compromised:[ 5 ] ~hop_adversary:rekey_adversary
       ()
      : Groupkey.Rekey.outcome);
  let probe (link : Service.link) =
    let out = Bytes.create (Crypto.Cipher.frame_size 5) in
    Crypto.Cipher.seal_into link.Service.cipher link.Service.scratch ~nonce:0L
      (Bytes.of_string "probe") ~len:5 out ~pos:0;
    Crypto.Sha256.hex_of (Bytes.to_string out)
  in
  let links =
    Array.map
      (fun node ->
        List.concat_map
          (fun run_cfg ->
            List.map
              (fun (_, key) ->
                let link = Service.link ~label:"channel-hop" ~key ~cfg:run_cfg in
                (probe link, link))
              node.Groupkey.Protocol.pairwise)
          [ Groupkey.Protocol.dissemination_cfg cfg; Groupkey.Rekey.dissemination_cfg cfg ])
      setup.Groupkey.Protocol.nodes
  in
  let key_of node blob =
    match
      List.find_opt
        (fun (_, (link : Service.link)) ->
          Crypto.Cipher.open_into link.Service.cipher link.Service.scratch blob ~pos:0 >= 0)
        links.(node)
    with
    | Some (name, _) ->
      Option.map (fun n -> (name, n)) (Crypto.Cipher.frame_nonce blob ~pos:0)
    | None -> Alcotest.failf "node %d sent a blob no pair link opens" node
  in
  check Alcotest.bool "the re-key seals" true (!rekey_seen <> []);
  unique_nonces ~key_of (!setup_seen @ !rekey_seen)

(* Mux frames: a data frame is sealed under its clear epoch header's key,
   with the cipher frame's nonce; an ack is tagged under the epoch's ack
   key with nonce (channel, seq), its bytes 1-8.  Outsiders seal under
   keys of their own and are skipped. *)
let mux_key spec node blob =
  if node >= Mux.node_count spec - spec.Mux.outsiders then None
  else
    match Crypto.Cipher.frame_nonce blob ~pos:4 with
    | Some n -> Some (Printf.sprintf "data/%ld" (String.get_int32_be blob 0), n)
    | None ->
      if String.length blob = 45 && blob.[0] = 'A' then
        Some
          (Printf.sprintf "ack/%ld" (String.get_int32_be blob 9), String.get_int64_be blob 1)
      else None

let nonces_mux ?(transport = Mux.Acked) ?(ack_mode = Mux.Slotted) () () =
  let spec =
    Mux.make ~key ~logical:24 ~phys:8 ~budget:2 ~transport ~ack_mode ~rounds:24 ~epoch_len:4
      ~grace:1 ~outsiders:2 ()
  in
  let adversary, seen =
    recording (Radio.Adversary.random_jammer (Prng.Rng.create 4L) ~channels:8 ~budget:2)
  in
  ignore (Mux.run spec ~adversary : Mux.result);
  unique_nonces ~key_of:(mux_key spec) !seen

(* Two runs under one group key and two seeds (and jammers): a slotted
   nonce is the message's (channel, seq), a piggybacked one its (channel,
   emulated round), and with a two-frame queue the jammers shed different
   offers, so the payload behind one nonce differs between the runs (its
   enqueue round, seq or carried ack).  One epoch key shared by the runs
   would seal both under that nonce.  A data blob's key is named by its
   keystream: every payload layout's second word is the channel, fixed by
   the nonce, so its ciphertext is the same in both runs exactly when the
   keystream is. *)
let nonces_mux_two_runs ack_mode () =
  let seen =
    List.concat_map
      (fun seed ->
        let spec =
          Mux.make ~key ~logical:24 ~phys:8 ~budget:2 ~ack_mode ~rounds:24 ~queue_cap:2
            ~epoch_len:4 ~grace:1 ~seed ()
        in
        let adversary, seen =
          recording
            (Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels:8 ~budget:2)
        in
        ignore (Mux.run spec ~adversary : Mux.result);
        !seen)
      [ 4L; 5L ]
  in
  let keystream _ blob =
    match Crypto.Cipher.frame_nonce blob ~pos:4 with
    | Some n -> Some (Crypto.Sha256.hex_of (String.sub blob 24 4), n)
    | None -> None
  in
  unique_nonces ~key_of:keystream seen

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
          Alcotest.test_case "unsendable sends rejected" `Quick unsendable_sends_rejected;
          Alcotest.test_case "open_channel pinned" `Quick open_channel_pinned ] );
      ( "nonces",
        [ Alcotest.test_case "mux slotted" `Quick (nonces_mux ());
          Alcotest.test_case "mux piggybacked" `Quick
            (nonces_mux ~ack_mode:Mux.Piggybacked ());
          Alcotest.test_case "mux repeat" `Quick
            (nonces_mux ~transport:(Mux.Repeat { reps = 3; group = 3 }) ());
          Alcotest.test_case "service with a colliding pair" `Quick nonces_service_collision;
          Alcotest.test_case "unicast" `Quick nonces_unicast;
          Alcotest.test_case "group-key part 2" `Quick nonces_groupkey_part2;
          Alcotest.test_case "setup then re-key" `Quick nonces_setup_then_rekey;
          Alcotest.test_case "mux slotted runs under one key" `Quick
            (nonces_mux_two_runs Mux.Slotted);
          Alcotest.test_case "mux piggybacked runs under one key" `Quick
            (nonces_mux_two_runs Mux.Piggybacked) ] ) ]
