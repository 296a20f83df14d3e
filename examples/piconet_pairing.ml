(* Piconet pairing without pre-shared secrets.

   The scenario from the paper's introduction: a roomful of devices wants a
   Bluetooth-style piconet, but there is no passkey, no PKI — and someone is
   actively jamming.  The devices bootstrap a shared group key from nothing
   (Section 6), then run a long-lived encrypted chat over the emulated
   secure channel (Section 7).

   Run with: dune exec examples/piconet_pairing.exe *)

let () =
  let t = 1 and n = 20 in
  Printf.printf "Piconet of %d devices, adversary on %d of %d channels.\n\n" n t (t + 1);
  (* Phase 1: establish the group key from scratch under jamming. *)
  let gk = Core.establish_group_key ~seed:42L ~t ~n ~attack:Core.Random_jam () in
  Printf.printf "Group key setup: %d rounds\n" gk.setup_rounds;
  Printf.printf "  devices holding the agreed key: %d / %d (guarantee: >= n - t = %d)\n"
    gk.agreed_holders n (n - t);
  Printf.printf "  devices holding a wrong key:    %d (guarantee: 0)\n" gk.wrong_holders;
  Printf.printf "  devices aware they lack it:     %d\n\n" gk.ignorant;
  (* Phase 2: chat over the emulated secure channel using that key. *)
  match gk.group_key_of 5 with
  | None -> Printf.printf "device 5 missed the key; pick another initiator\n"
  | Some key ->
    let chat =
      [ (0, 5, "hi everyone, channel is up");
        (1, 9, "reading you loud and clear");
        (2, 14, "same here despite the jammer");
        (3, 5, "starting file transfer") ]
    in
    let ch = Core.open_channel ~seed:43L ~key ~t ~n ~attack:Core.Random_jam chat in
    Printf.printf "Secure channel: %d real rounds per message\n" ch.rounds_per_message;
    List.iter
      (fun (er, sender, msg, receivers) ->
        Printf.printf "  [er %d] device %d: %-35S heard by %d devices\n" er sender msg
          receivers)
      ch.deliveries;
    Printf.printf "  secrecy (no plaintext on air): %b\n" ch.secrecy_ok;
    Printf.printf "  authentication (no forgeries): %b\n" ch.authentication_ok
