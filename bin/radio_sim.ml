(* radio_sim: command-line driver for the secure-radio protocol suite.

   Subcommands:
     exchange    run f-AME on a generated workload
     groupkey    establish a shared group key (Section 6)
     channel     emulate the long-lived secure channel (Section 7)
     service     run the multiplexed secure-channel service (Section 7 at scale)
     game        play the starred-edge removal game (Section 5.1-5.2)
     experiment  regenerate a paper experiment table (e1..e12)
     list        list available experiments *)

open Cmdliner

let attack_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Core.attack_of_string s) in
  let print fmt a =
    let name =
      match a with
      | Core.No_attack -> "none"
      | Core.Random_jam -> "random-jam"
      | Core.Sweep_jam -> "sweep-jam"
      | Core.Schedule_jam -> "schedule-jam"
      | Core.Spoof -> "spoof"
    in
    Format.pp_print_string fmt name
  in
  Arg.conv (parse, print)

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let t_arg =
  Arg.(
    value & opt int 2 & info [ "t" ] ~docv:"T" ~doc:"Adversary budget (channels per round).")

let n_arg =
  Arg.(value & opt int 0 & info [ "n" ] ~docv:"N" ~doc:"Node count (0 = smallest legal).")

let attack_arg =
  Arg.(
    value
    & opt attack_conv Core.Schedule_jam
    & info [ "attack" ] ~docv:"ATTACK"
        ~doc:(Printf.sprintf "Adversary strategy: %s." (String.concat ", " Core.attack_names)))

let pairs_arg =
  Arg.(
    value & opt int 6 & info [ "pairs" ] ~docv:"K" ~doc:"Number of disjoint exchange pairs.")

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel experiment runner and the \
           service's per-frame crypto (default: the recommended domain \
           count).  Output is byte-identical for every N.")

let resolve_n ~t n =
  if n > 0 then n
  else
    Ame.Params.nodes_required Ame.Params.default ~channels_used:(t + 1) ~budget:t
      ~channels:(t + 1)
    + 8

let exchange_cmd =
  let run seed t n attack pairs_count =
    let n = resolve_n ~t n in
    let pairs_count = min pairs_count (n / 2) in
    let pairs = Core.Rgraph.Workload.disjoint_pairs ~n ~count:pairs_count in
    let triples = List.map (fun (v, w) -> (v, w, Printf.sprintf "msg-%d-%d" v w)) pairs in
    let r = Core.exchange ~seed ~t ~n ~attack triples in
    Printf.printf "f-AME: n=%d t=%d C=%d |E|=%d\n" n t (t + 1) pairs_count;
    Printf.printf "rounds=%d delivered=%d failed=%d authentic=%b diverged=%b\n" r.rounds
      (List.length r.delivered) (List.length r.failed) r.authentic r.diverged;
    (match r.disruption_cover with
     | Some c -> Printf.printf "disruption vertex cover = %d (bound t = %d)\n" c t
     | None -> ());
    List.iter (fun ((v, w), body) -> Printf.printf "  %d -> %d : %S\n" v w body) r.delivered
  in
  Cmd.v (Cmd.info "exchange" ~doc:"Run f-AME on a disjoint-pairs workload.")
    Term.(const run $ seed_arg $ t_arg $ n_arg $ attack_arg $ pairs_arg)

let groupkey_cmd =
  let run seed t n attack =
    let n = resolve_n ~t n in
    let r = Core.establish_group_key ~seed ~t ~n ~attack () in
    Printf.printf "group key: n=%d t=%d rounds=%d\n" n t r.setup_rounds;
    Printf.printf "agreed=%d wrong=%d ignorant=%d (guarantee: agreed >= %d, wrong = 0)\n"
      r.agreed_holders r.wrong_holders r.ignorant (n - t)
  in
  Cmd.v (Cmd.info "groupkey" ~doc:"Establish a shared group key (Section 6).")
    Term.(const run $ seed_arg $ t_arg $ n_arg $ attack_arg)

let channel_cmd =
  let messages_arg =
    Arg.(value & opt int 5 & info [ "messages" ] ~docv:"M" ~doc:"Messages to broadcast.")
  in
  let run seed t n attack count =
    let n = resolve_n ~t n in
    let sends = List.init count (fun i -> (i, i mod n, Printf.sprintf "broadcast-%d" i)) in
    let r = Core.open_channel ~seed ~t ~n ~attack sends in
    Printf.printf "secure channel: n=%d t=%d, %d real rounds per message\n" n t
      r.rounds_per_message;
    List.iter
      (fun (er, sender, msg, receivers) ->
        Printf.printf "  [%d] node %d %S -> %d receivers\n" er sender msg receivers)
      r.deliveries;
    Printf.printf "secrecy=%b authentication=%b\n" r.secrecy_ok r.authentication_ok
  in
  Cmd.v (Cmd.info "channel" ~doc:"Emulate the long-lived secure channel (Section 7).")
    Term.(const run $ seed_arg $ t_arg $ n_arg $ attack_arg $ messages_arg)

let service_cmd =
  let module Mux = Core.Secure_channel.Mux in
  let channels_arg =
    Arg.(value & opt int 256 & info [ "channels" ] ~docv:"M" ~doc:"Logical channels.")
  in
  let phys_arg =
    Arg.(value & opt int 16 & info [ "phys" ] ~docv:"C" ~doc:"Physical radio channels.")
  in
  let rounds_arg =
    Arg.(value & opt int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Emulated rounds to run.")
  in
  let epoch_arg =
    Arg.(
      value & opt int 4
      & info [ "epoch-len" ] ~docv:"E" ~doc:"Emulated rounds per key epoch.")
  in
  let outsiders_arg =
    Arg.(
      value & opt int 0
      & info [ "outsiders" ] ~docv:"K" ~doc:"Keyless nodes that snoop and forge.")
  in
  let jam_arg =
    Arg.(value & flag & info [ "jam" ] ~doc:"Random jammer spending the full budget (-t).")
  in
  let ack_arg =
    Arg.(
      value & opt string "slotted"
      & info [ "ack-mode" ] ~docv:"MODE"
          ~doc:
            "Ack mode: slotted (dedicated ack phase) or piggybacked (cumulative acks ride \
             in duplex-paired data frames; needs an even channel count).")
  in
  let run seed t channels phys rounds epoch_len outsiders ack_mode jam jobs =
    match
      match ack_mode with
      | "slotted" -> Ok Mux.Slotted
      | "piggybacked" | "pig" -> Ok Mux.Piggybacked
      | other -> Error (Printf.sprintf "unknown ack mode %S (slotted, piggybacked)" other)
    with
    | Error msg -> `Error (false, msg)
    | Ok ack_mode ->
      let spec =
        Mux.make ~key:"radio-sim-service-key" ~logical:channels ~phys ~budget:t ~ack_mode
          ~rounds ~epoch_len ~grace:(max 1 (epoch_len / 4)) ~outsiders ~seed ()
      in
      let adversary =
        if jam then
          Core.Radio.Adversary.random_jammer (Core.Prng.Rng.create seed) ~channels:phys
            ~budget:t
        else Core.Radio.Adversary.null
      in
      (* The per-frame crypto fans out over --jobs domains.  Its work
         counters are summed over them, so the crypto line is as
         jobs-independent as the stats above it. *)
      let module Counters = Core.Crypto.Counters in
      let before = Counters.snapshot () in
      let r = Parallel.run ~jobs (fun () -> Mux.run spec ~adversary) in
      print_string (Mux.render_stats r);
      print_endline (Counters.render (Counters.diff (Counters.snapshot ()) before));
      `Ok ()
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:"Run the multiplexed secure-channel service (Section 7 at scale).")
    Term.(
      ret
        (const run $ seed_arg $ t_arg $ channels_arg $ phys_arg $ rounds_arg $ epoch_arg
       $ outsiders_arg $ ack_arg $ jam_arg $ jobs_arg))

let game_cmd =
  let nodes_arg =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"M" ~doc:"Complete graph size.")
  in
  let referee_arg =
    Arg.(
      value & opt string "minimal"
      & info [ "referee" ] ~docv:"R" ~doc:"Referee: generous, minimal, spiteful, random.")
  in
  let run seed t m referee_name =
    let g = Core.Rgraph.Digraph.Dense.of_edges (Core.Rgraph.Workload.complete ~n:m) in
    let referee =
      match referee_name with
      | "generous" -> Core.Game.Referee.generous
      | "minimal" -> Core.Game.Referee.minimal_first
      | "spiteful" -> Core.Game.Referee.spiteful ~min_return:1
      | "random" -> Core.Game.Referee.random (Core.Prng.Rng.create seed) ~min_return:1
      | other -> failwith (Printf.sprintf "unknown referee %S" other)
    in
    let o = Core.Game.Runner.play (Core.Game.State.create_dense g ~t) referee in
    Printf.printf "starred-edge removal on K%d (|E|=%d), t=%d, referee=%s\n" m
      (Core.Rgraph.Digraph.Dense.edge_count g) t referee_name;
    Printf.printf "moves=%d stars=%d edges_removed=%d won=%b\n" o.moves o.stars
      o.edges_removed o.won
  in
  Cmd.v (Cmd.info "game" ~doc:"Play the starred-edge removal game.")
    Term.(const run $ seed_arg $ t_arg $ nodes_arg $ referee_arg)

let experiment_cmd =
  let ids_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (e1..e17), or 'all' for the full registry.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller parameter grid.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write structured results (tables as data, per-experiment \
                wall-clock metrics) to $(docv).")
  in
  let run ids quick jobs json =
    let resolve id =
      match Experiments.Registry.find id with
      | Some e -> Ok e
      | None ->
        Error
          (Printf.sprintf "unknown experiment %S; available: %s" id
             (String.concat ", " Experiments.Registry.ids))
    in
    let experiments =
      if ids = [ "all" ] then Ok Experiments.Registry.all
      else
        List.fold_right
          (fun id acc ->
            match (resolve id, acc) with
            | Ok e, Ok es -> Ok (e :: es)
            | Error m, _ | _, Error m -> Error m)
          ids (Ok [])
    in
    match experiments with
    | Error msg -> `Error (false, msg)
    | Ok experiments ->
      let outcomes = Experiments.Runner.run_many ~quick ~jobs experiments in
      List.iter
        (fun (o : Experiments.Runner.outcome) ->
          Format.printf "%s: %s@." o.experiment.Experiments.Registry.id
            o.experiment.Experiments.Registry.title;
          Experiments.Runner.render Format.std_formatter o;
          (* Timing goes to stderr so stdout stays independent of machine
             speed and --jobs. *)
          Printf.eprintf "[%s] %.2fs wall-clock, %d simulated rounds\n%!"
            o.experiment.Experiments.Registry.id o.wall_s
            o.result.Experiments.Common.total_rounds)
        outcomes;
      (match json with
       | None -> `Ok ()
       | Some path -> (
         match Experiments.Runner.write_json ~path ~quick ~jobs outcomes with
         | () ->
           Printf.eprintf "structured results written to %s\n%!" path;
           `Ok ()
         | exception Sys_error msg ->
           `Error (false, Printf.sprintf "cannot write --json results: %s" msg)))
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate paper experiment tables.")
    Term.(ret (const run $ ids_arg $ quick_arg $ jobs_arg $ json_arg))

let rekey_cmd =
  let compromised_arg =
    Arg.(
      value & opt (list int) [ 7 ]
      & info [ "compromised" ] ~docv:"IDS" ~doc:"Comma-separated compromised node ids.")
  in
  let run seed t n compromised =
    let n = resolve_n ~t n in
    let channels = t + 1 in
    let cfg = Core.Radio.Config.make ~seed ~n ~channels ~t ~max_rounds:50_000_000 () in
    let setup =
      Core.Groupkey.Protocol.run ~cfg
        ~fame_adversary:(fun _ -> Core.Radio.Adversary.null)
        ~hop_adversary:
          (Core.Radio.Adversary.random_jammer (Core.Prng.Rng.create seed) ~channels ~budget:t)
        ()
    in
    Printf.printf "setup: %d rounds, %d/%d agreed\n" setup.total_rounds
      setup.agreed_key_holders n;
    let rk =
      Core.Groupkey.Rekey.run ~cfg ~previous:setup ~compromised
        ~hop_adversary:
          (Core.Radio.Adversary.random_jammer
             (Core.Prng.Rng.create (Int64.add seed 1L))
             ~channels ~budget:t)
        ()
    in
    Printf.printf "rekey (excluding %s): %d rounds, %d survivors agreed, %d wrong, %d leaked\n"
      (String.concat "," (List.map string_of_int compromised))
      rk.rounds rk.agreed_key_holders rk.wrong_key_holders rk.excluded_with_key
  in
  Cmd.v (Cmd.info "rekey" ~doc:"Establish a group key, then rotate it after a compromise.")
    Term.(const run $ seed_arg $ t_arg $ n_arg $ compromised_arg)

let trace_cmd =
  let rounds_arg =
    Arg.(value & opt int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds to display.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write CSV here.")
  in
  let run seed t pairs_count shown csv =
    let n = resolve_n ~t 0 in
    let channels = t + 1 in
    let cfg = Core.Radio.Config.make ~seed ~n ~channels ~t ~record_transcript:true () in
    let pairs = Core.Rgraph.Workload.disjoint_pairs ~n ~count:(min pairs_count (n / 2)) in
    let o =
      Core.Ame.Fame.run ~cfg ~pairs
        ~messages:(fun (v, w) -> Printf.sprintf "msg-%d-%d" v w)
        ~adversary:(fun board ->
          Core.Ame.Attacks.schedule_jammer board ~channels ~budget:t
            ~prefer:Core.Ame.Attacks.Prefer_edges)
        ()
    in
    let engine = o.Core.Ame.Fame.engine in
    let transcript = engine.Core.Radio.Engine.transcript in
    Format.printf "f-AME trace: %d rounds total, showing %d@.@."
      (List.length transcript) shown;
    Core.Radio.Trace.pp_rounds ~limit:shown Format.std_formatter transcript;
    Format.printf "@.channel utilization:@.";
    Core.Radio.Transcript.Channel_usage.pp Format.std_formatter
      engine.Core.Radio.Engine.channel_usage;
    match csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Core.Radio.Trace.to_csv transcript);
      close_out oc;
      Printf.printf "CSV written to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "trace" ~doc:"Run f-AME with transcript recording and display the trace.")
    Term.(const run $ seed_arg $ t_arg $ pairs_arg $ rounds_arg $ csv_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.experiment) -> Printf.printf "%-4s %s\n" e.id e.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments.") Term.(const run $ const ())

let main =
  let info =
    Cmd.info "radio_sim" ~version:Core.version
      ~doc:"Secure communication over multi-channel radio with a malicious adversary."
  in
  Cmd.group info
    [ exchange_cmd; groupkey_cmd; rekey_cmd; channel_cmd; service_cmd; game_cmd; trace_cmd;
      experiment_cmd; list_cmd ]

let () = exit (Cmd.eval main)
