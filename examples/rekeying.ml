(* Re-keying after a device compromise.

   The paper's introduction motivates on-air key establishment partly by the
   need to "re-key dynamically, for example, after the detection of a
   compromised device".  This example establishes a group key from nothing,
   then declares two devices compromised and rotates the key without
   re-running the expensive f-AME phase: the surviving pairwise keys carry
   fresh leader proposals, the compromised devices are cut out, and the old
   group key becomes worthless to them.

   Run with: dune exec examples/rekeying.exe *)

let () =
  let t = 1 and n = 20 in
  let cfg =
    Core.Radio.Config.make ~n ~channels:(t + 1) ~t ~seed:2024L ~max_rounds:50_000_000 ()
  in
  Printf.printf "Network of %d devices, t = %d.\n\n" n t;
  (* Initial setup: full Section 6 protocol. *)
  let setup =
    Core.Groupkey.Protocol.run ~cfg
      ~fame_adversary:(fun board ->
        Core.Ame.Attacks.schedule_jammer board ~channels:(t + 1) ~budget:t
          ~prefer:Core.Ame.Attacks.Prefer_edges)
      ~hop_adversary:
        (Core.Radio.Adversary.random_jammer (Core.Prng.Rng.create 9L) ~channels:(t + 1)
           ~budget:t)
      ()
  in
  Printf.printf "Initial setup: %d rounds, %d/%d devices hold the group key.\n"
    setup.Core.Groupkey.Protocol.total_rounds setup.Core.Groupkey.Protocol.agreed_key_holders
    n;
  (* Devices 7 and 12 are found compromised. *)
  let compromised = [ 7; 12 ] in
  Printf.printf "\nDevices %s compromised -- rotating the key.\n"
    (String.concat " and " (List.map string_of_int compromised));
  let rk =
    Core.Groupkey.Rekey.run ~cfg ~previous:setup ~compromised
      ~hop_adversary:
        (Core.Radio.Adversary.random_jammer (Core.Prng.Rng.create 10L) ~channels:(t + 1)
           ~budget:t)
      ()
  in
  Printf.printf "Re-key: %d rounds (%.0f%% of a full setup).\n" rk.Core.Groupkey.Rekey.rounds
    (100.0
    *. float_of_int rk.Core.Groupkey.Rekey.rounds
    /. float_of_int setup.Core.Groupkey.Protocol.total_rounds);
  Printf.printf "  surviving devices on the new key: %d / %d\n"
    rk.Core.Groupkey.Rekey.agreed_key_holders
    (n - List.length compromised);
  Printf.printf "  compromised devices that got it:  %d (guarantee: 0)\n"
    rk.Core.Groupkey.Rekey.excluded_with_key;
  (* The rotated key runs the secure channel; the compromised devices are
     now locked out like any outsider. *)
  match rk.Core.Groupkey.Rekey.group_key.(0) with
  | None -> Printf.printf "device 0 missed the new key\n"
  | Some key ->
    let holders =
      List.filter
        (fun i -> rk.Core.Groupkey.Rekey.group_key.(i) = Some key)
        (List.init n Fun.id)
    in
    let spec = Core.Secure_channel.Service.make_spec ~key ~cfg in
    let o =
      Core.Secure_channel.Service.run_workload ~cfg ~key_holders:holders ~spec
        ~sends:[ (0, 0, "post-rotation traffic") ]
        ~adversary:
          (Core.Radio.Adversary.random_jammer (Core.Prng.Rng.create 11L) ~channels:(t + 1)
             ~budget:t)
        ()
    in
    let d = List.hd o.Core.Secure_channel.Service.deliveries in
    Printf.printf "\nPost-rotation broadcast heard by %d devices;\n"
      (List.length d.Core.Secure_channel.Service.received_by);
    Printf.printf "compromised devices received it: %b\n"
      (List.exists (fun c -> List.mem c d.Core.Secure_channel.Service.received_by) compromised)
