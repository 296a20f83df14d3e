type link = {
  channels : int;
  reps : int;
  hop_label : string;
  hop_prf : Crypto.Prf.Keyed.t;
  cipher : Crypto.Cipher.key;
  scratch : Crypto.Cipher.scratch;
}

let reps cfg =
  Radio.Config.reps ~scale:(4.0 *. float_of_int (cfg.Radio.Config.t + 1)) ~n:cfg.Radio.Config.n

(* The cipher key of a link: K bound to the run's seed and the link's
   label.  Nonces are unique only within one engine run (rounds restart
   at 0), and one key may serve several runs (setup and re-key share the
   pair keys) or several links in one run (a unicast and a broadcast link
   under one key); each (seed, label, K) seals under a key of its own.
   The hop PRF stays under K, so every hop and round is unchanged. *)
let cipher_key ~label ~key ~seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 seed;
  Crypto.Cipher.key (Crypto.Sha256.digest (Bytes.to_string b ^ label ^ "|" ^ key))

let link ~label ~key ~cfg =
  { channels = cfg.Radio.Config.channels; reps = reps cfg; hop_label = label;
    hop_prf = Crypto.Prf.Keyed.create key;
    cipher = cipher_key ~label ~key ~seed:cfg.Radio.Config.seed;
    scratch = Crypto.Cipher.scratch () }

let hop link ~round =
  Crypto.Prf.Keyed.below link.hop_prf ~label:link.hop_label ~counter:round link.channels

(* The nonce of a frame sealed by [sender] in engine round [round]: the
   round in the high word, the sender in the low one.  Rounds do not
   repeat within a run, the cipher key is the run's own ([cipher_key]),
   and within a round two key holders that both transmit are told apart,
   so no (key, nonce) ever seals two different payloads. *)
let nonce ~round ~sender =
  Int64.logor
    (Int64.shift_left (Int64.of_int (round land 0xFFFF_FFFF)) 32)
    (Int64.of_int (sender land 0xFFFF_FFFF))

let send link ~sender payload =
  let len = String.length payload in
  let plain = Bytes.of_string payload in
  let frame = Bytes.create (Crypto.Cipher.frame_size len) in
  for _ = 1 to link.reps do
    let round = Radio.Engine.current_round () in
    Crypto.Cipher.seal_into link.cipher link.scratch ~nonce:(nonce ~round ~sender) plain ~len
      frame ~pos:0;
    Radio.Engine.transmit ~chan:(hop link ~round) (Radio.Frame.Sealed (Bytes.to_string frame))
  done

(* A frame is opened only if its nonce names the round it is heard in:
   an authentic frame replayed from an earlier round is dropped unopened. *)
let fresh blob ~round =
  match Crypto.Cipher.frame_nonce blob ~pos:0 with
  | Some n -> Int64.shift_right_logical n 32 = Int64.of_int (round land 0xFFFF_FFFF)
  | None -> false

let listen link f =
  let opening = ref true in
  for _ = 1 to link.reps do
    let round = Radio.Engine.current_round () in
    match Radio.Engine.listen ~chan:(hop link ~round) with
    | Some (Radio.Frame.Sealed blob) when !opening && fresh blob ~round ->
      let len = Crypto.Cipher.open_into link.cipher link.scratch blob ~pos:0 in
      if len >= 0 then opening := f (Bytes.sub_string (Crypto.Cipher.plain link.scratch) 0 len)
    | Some _ | None -> ()
  done

let make_spec ~key ~cfg = link ~label:"channel-hop" ~key ~cfg

let encode_payload ~sender ~seq msg =
  let len = String.length msg in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int sender);
  Bytes.set_int32_be b 4 (Int32.of_int seq);
  Bytes.blit_string msg 0 b 8 len;
  Bytes.to_string b

let decode_payload payload =
  if String.length payload < 8 then None
  else begin
    let field pos = Int32.to_int (String.get_int32_be payload pos) land 0xFFFF_FFFF in
    Some (field 0, field 4, String.sub payload 8 (String.length payload - 8))
  end

let broadcast link ~sender ~seq msg = send link ~sender (encode_payload ~sender ~seq msg)

let recv link =
  let got = ref None in
  listen link (fun payload ->
      got := decode_payload payload;
      !got = None);
  !got

type delivery = {
  emulated_round : int;
  sender : int;
  message : string;
  received_by : int list;
}

type outcome = {
  engine : Radio.Engine.result;
  deliveries : delivery list;
  emulated_rounds : int;
  real_rounds_per_emulated : int;
  plaintext_leaks : int;
  forged_accepts : int;
}

let run_workload ~cfg ~key_holders ~spec ~sends ~adversary () =
  let n = cfg.Radio.Config.n in
  let emulated_rounds =
    1 + List.fold_left (fun acc (er, _, _) -> max acc er) 0 sends
  in
  List.iter
    (fun (er, sender, _) ->
      if not (List.mem sender key_holders) then
        invalid_arg "Service.run_workload: sender lacks the group key";
      if er < 0 then invalid_arg "Service.run_workload: negative emulated round")
    sends;
  (* A node body sends once per emulated round: a second send in the same
     slot would never go on air, yet [deliveries] would list it as lost. *)
  let by_slot (r1, s1, _) (r2, s2, _) =
    let c = Int.compare r1 r2 in
    if c <> 0 then c else Int.compare s1 s2
  in
  let sorted = List.sort_uniq by_slot sends in
  if List.compare_lengths sorted sends <> 0 then
    invalid_arg "Service.run_workload: two sends by one sender in one round";
  let sends = sorted in
  (* receptions.(node) collects (emulated_round, sender, seq, msg). *)
  let receptions = Array.make n [] in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let holds_key = List.mem id key_holders in
    for er = 0 to emulated_rounds - 1 do
      match List.find_opt (fun (r, s, _) -> r = er && s = id) sends with
      | Some (_, _, msg) -> broadcast spec ~sender:id ~seq:er msg
      | None ->
        if holds_key then begin
          match recv spec with
          | Some (sender, seq, msg) ->
            receptions.(id) <- (er, sender, seq, msg) :: receptions.(id)
          | None -> ()
        end
        else
          (* Key outsiders cannot follow the hopping pattern; they scan
             random channels and (provably) decode nothing useful. *)
          for _ = 1 to spec.reps do
            ignore (Radio.Engine.listen ~chan:(Prng.Rng.int ctx.rng spec.channels))
          done
    done
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let deliveries =
    List.map
      (fun (er, sender, msg) ->
        let received_by =
          List.filter
            (fun id ->
              id <> sender
              && List.exists
                   (fun (r, s, _, m) -> r = er && s = sender && m = msg)
                   receptions.(id))
            (List.init n Fun.id)
        in
        { emulated_round = er; sender; message = msg; received_by })
      sends
  in
  let forged_accepts =
    Array.fold_left
      (fun acc recs ->
        acc
        + List.length
            (List.filter
               (fun (_, sender, seq, msg) ->
                 not (List.exists (fun (r, s, m) -> r = seq && s = sender && m = msg) sends))
               recs))
      0 receptions
  in
  (* Secrecy scan: every honest transmission in this protocol must be a
     Sealed frame (checked via the payload-size stats being consistent is
     weak; instead we rely on construction plus the transcript when
     recorded). *)
  let plaintext_leaks =
    List.fold_left
      (fun acc record ->
        acc
        + List.length
            (List.filter
               (fun (_, _, frame) ->
                 match frame with Radio.Frame.Sealed _ -> false | _ -> true)
               record.Radio.Transcript.honest_tx))
      0 engine.Radio.Engine.transcript
  in
  { engine; deliveries; emulated_rounds; real_rounds_per_emulated = spec.reps;
    plaintext_leaks; forged_accepts }
