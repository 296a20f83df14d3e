module Prng = Prng
module Crypto = Crypto
module Rgraph = Rgraph
module Radio = Radio
module Game = Game
module Ame = Ame
module Groupkey = Groupkey
module Secure_channel = Secure_channel

let version = "1.0.0"

type attack =
  | No_attack
  | Random_jam
  | Sweep_jam
  | Schedule_jam
  | Spoof

let attack_names = [ "none"; "random-jam"; "sweep-jam"; "schedule-jam"; "spoof" ]

let attack_of_string = function
  | "none" -> Ok No_attack
  | "random-jam" -> Ok Random_jam
  | "sweep-jam" -> Ok Sweep_jam
  | "schedule-jam" -> Ok Schedule_jam
  | "spoof" -> Ok Spoof
  | s ->
    Error
      (Printf.sprintf "unknown attack %S (choose from: %s)" s
         (String.concat ", " attack_names))

let adversary_for ~attack ~channels ~budget ~seed board =
  let rng = Prng.Rng.create (Int64.logxor seed 0xADBEEFL) in
  match attack with
  | No_attack -> Radio.Adversary.null
  | Random_jam -> Radio.Adversary.random_jammer rng ~channels ~budget
  | Sweep_jam -> Radio.Adversary.sweep_jammer ~channels ~budget
  | Schedule_jam ->
    Ame.Attacks.schedule_jammer board ~channels ~budget ~prefer:Ame.Attacks.Prefer_edges
  | Spoof ->
    Radio.Adversary.spoofer rng ~channels ~budget
      ~forge:(fun ~round chan ->
        Radio.Frame.Plain { src = chan; dst = 0; body = Printf.sprintf "forged-%d" round })

let plain_adversary ~attack ~channels ~budget ~seed =
  adversary_for ~attack ~channels ~budget ~seed (Ame.Oracle.create ())

type exchange_report = {
  delivered : ((int * int) * string) list;
  failed : (int * int) list;
  rounds : int;
  disruption_cover : int option;
  authentic : bool;
  diverged : bool;
}

let exchange ?(seed = 1L) ?channels ~t ~n ~attack triples =
  let channels = Option.value channels ~default:(t + 1) in
  let cfg = Radio.Config.make ~seed ~n ~channels ~t () in
  let pairs = List.map (fun (v, w, _) -> (v, w)) triples in
  let payloads = Hashtbl.create 16 in
  List.iter (fun (v, w, body) -> Hashtbl.replace payloads (v, w) body) triples;
  let messages pair = Option.value (Hashtbl.find_opt payloads pair) ~default:"" in
  let outcome =
    Ame.Fame.run ~cfg ~pairs ~messages
      ~adversary:(adversary_for ~attack ~channels ~budget:t ~seed)
      ()
  in
  let authentic =
    List.for_all (fun (pair, body) -> body = messages pair) outcome.Ame.Fame.delivered
  in
  { delivered = outcome.Ame.Fame.delivered;
    failed = outcome.Ame.Fame.failed;
    rounds = outcome.Ame.Fame.engine.Radio.Engine.rounds_used;
    disruption_cover = outcome.Ame.Fame.disruption_vc;
    authentic;
    diverged = outcome.Ame.Fame.diverged }

type group_key_report = {
  agreed_holders : int;
  wrong_holders : int;
  ignorant : int;
  setup_rounds : int;
  group_key_of : int -> string option;
}

let establish_group_key ?(seed = 1L) ~t ~n ~attack () =
  let channels = t + 1 in
  let cfg =
    Radio.Config.make ~seed ~n ~channels ~t ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let outcome =
    Groupkey.Protocol.run ~cfg
      ~fame_adversary:(adversary_for ~attack ~channels ~budget:t ~seed)
      ~hop_adversary:(plain_adversary ~attack ~channels ~budget:t ~seed:(Int64.add seed 1L))
      ()
  in
  { agreed_holders = outcome.Groupkey.Protocol.agreed_key_holders;
    wrong_holders = outcome.Groupkey.Protocol.wrong_key_holders;
    ignorant = outcome.Groupkey.Protocol.no_key_holders;
    setup_rounds = outcome.Groupkey.Protocol.total_rounds;
    group_key_of =
      (fun i ->
        if i < 0 || i >= n then None
        else outcome.Groupkey.Protocol.nodes.(i).Groupkey.Protocol.group_key) }

type channel_report = {
  deliveries : (int * int * string * int) list;
  rounds_per_message : int;
  secrecy_ok : bool;
  authentication_ok : bool;
}

let open_channel ?(seed = 1L) ?key ~t ~n ~attack sends =
  let channels = t + 1 in
  let cfg = Radio.Config.make ~seed ~n ~channels ~t ~record_transcript:true () in
  let key =
    match key with
    | Some k -> k
    | None ->
      let rng = Prng.Rng.create (Int64.logxor seed 0x6B6579L) in
      String.init 32 (fun _ -> Char.chr (Prng.Rng.int rng 256))
  in
  let spec = Secure_channel.Service.make_spec ~key ~cfg in
  let outcome =
    Secure_channel.Service.run_workload ~cfg ~key_holders:(List.init n Fun.id) ~spec ~sends
      ~adversary:(plain_adversary ~attack ~channels ~budget:t ~seed)
      ()
  in
  { deliveries =
      List.map
        (fun (d : Secure_channel.Service.delivery) ->
          (d.emulated_round, d.sender, d.message, List.length d.received_by))
        outcome.Secure_channel.Service.deliveries;
    rounds_per_message = outcome.Secure_channel.Service.real_rounds_per_emulated;
    secrecy_ok = outcome.Secure_channel.Service.plaintext_leaks = 0;
    authentication_ok = outcome.Secure_channel.Service.forged_accepts = 0 }
