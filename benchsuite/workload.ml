(* The benchmark's workloads: inputs generated from a seed, one operation,
   and the facts the checks and metrics read off its result.

   Every service workload is an open loop in emulated time: each logical
   channel is offered one message per emulated round whatever its backlog,
   and overflow is shed.  The simulator itself runs as fast as it can. *)

module Mux = Secure_channel.Mux
module Runner = Experiments.Runner
module Registry = Experiments.Registry

type scale = Full | Smoke

type svc = {
  logical : int;
  payload : int;
  ack_mode : Mux.ack_mode option;  (** [None]: the Mux default *)
  jammed : bool;
}

type kind = Svc of svc | Fame of { n : int } | Sweep

type t = { name : string; why : string; kind : kind }

(* Each [why] is the reason the workload exists: which layer it stresses
   and which optimisation it exercises or bypasses.

   Every op is sized to take well under a second, so a timed window holds
   twenty or more of them: on a shared host the neighbours slow this
   process down in bursts of a few seconds, and only ops shorter than the
   quiet spells between bursts ever run at the program's own speed (see
   [Bench.end_to_end]).  f-AME keeps n above the engine's sharding
   threshold (16,384 nodes), so the 2-domain replay still shards. *)
let all scale =
  let small, bulk, fame_n =
    match scale with Full -> (1024, 64, 20_000) | Smoke -> (64, 16, 2_000)
  in
  [ { name = "svc-small";
      why =
        "16 B messages on 1024 piggybacked channels: per-frame mux and engine costs \
         dominate";
      kind = Svc { logical = small; payload = 16; ack_mode = Some Mux.Piggybacked; jammed = false } };
    { name = "svc-bulk";
      why = "1 KiB messages on 64 channels: SHA-256 work per byte dominates, the engine is idle";
      kind =
        Svc { logical = bulk; payload = 1024; ack_mode = Some Mux.Piggybacked; jammed = false } };
    { name = "svc-jammed";
      why =
        "default ack/crypto modes under a random jammer: retransmission, shedding and the \
         ack-phase MAC path";
      kind = Svc { logical = small; payload = 16; ack_mode = None; jammed = true } };
    { name = "fame-n2e4";
      why = "f-AME over 20k nodes, no crypto: schedule builds and engine rounds at population scale";
      kind = Fame { n = fame_n } };
    { name = "paper-quick";
      why = "the quick e1-e17 sweep: many short runs, the only user of game/groupkey/Service code";
      kind = Sweep } ]

let find scale name = List.find_opt (fun w -> w.name = name) (all scale)

(* Seed-derived inputs.  The operation receives only these. *)
type inputs =
  | Svc_in of { spec : Mux.spec; jam_seed : int64 option }
  | Fame_in of {
      cfg : Radio.Config.t;
      pairs : (int * int) list;
      messages : int * int -> string;
    }
  | Sweep_in of Registry.experiment list

let fame_pairs = 4

let inputs w ~seed =
  let rng = Prng.Rng.create (Int64.of_int seed) in
  let draw () = Prng.Rng.bits64 rng in
  match w.kind with
  | Svc s ->
    let spec =
      Mux.make
        ~key:(Printf.sprintf "benchsuite-%Lx" (draw ()))
        ~logical:s.logical ~phys:16 ~budget:4 ?ack_mode:s.ack_mode ~rounds:24 ~rate:1
        ~queue_cap:8 ~window:32 ~epoch_len:2 ~grace:1 ~payload:s.payload ~seed:(draw ()) ()
    in
    Svc_in { spec; jam_seed = (if s.jammed then Some (draw ()) else None) }
  | Fame { n } ->
    let tag = draw () in
    Fame_in
      { cfg = Radio.Config.make ~n ~channels:2 ~t:1 ~seed:(draw ()) ();
        pairs = Rgraph.Workload.disjoint_pairs ~n ~count:fame_pairs;
        messages = (fun (v, w) -> Printf.sprintf "m-%d-%d-%Lx" v w tag) }
  | Sweep -> Sweep_in Registry.all

(* What a traced run hooks into.  The untraced probe is the identity: in
   particular it hands the engine [Adversary.null] itself, which keeps the
   engine's empty-round fast-forward on. *)
type probe = {
  adversary : Radio.Adversary.t -> Radio.Adversary.t;
  oracle : Ame.Oracle.t -> unit;
  experiment : 'a. string -> (unit -> 'a) -> 'a;
}

let untraced = { adversary = Fun.id; oracle = ignore; experiment = (fun _ f -> f ()) }

type result =
  | Svc_out of Mux.result
  | Fame_out of { outcome : Ame.Fame.outcome; expected : ((int * int) * string) list }
  | Sweep_out of { experiments : (string * (string, string) Stdlib.result) list; total_rounds : int }
      (** per experiment, the digest of its rendered tables or what it raised *)

let digest_outcome (o : Runner.outcome) =
  Crypto.Sha256.digest_hex (Format.asprintf "%a" Runner.render o)

let run ?(probe = untraced) = function
  | Svc_in { spec; jam_seed } ->
    let adversary =
      match jam_seed with
      | None -> Radio.Adversary.null
      | Some seed -> Experiments.Common.random_jam ~seed ~channels:spec.Mux.phys ~budget:spec.Mux.budget
    in
    Svc_out (Mux.run spec ~adversary:(probe.adversary adversary))
  | Fame_in { cfg; pairs; messages } ->
    let outcome =
      Ame.Fame.run ~cfg ~pairs ~messages
        ~adversary:(fun oracle ->
          probe.oracle oracle;
          probe.adversary Radio.Adversary.null)
        ()
    in
    Fame_out { outcome; expected = List.map (fun p -> (p, messages p)) pairs }
  | Sweep_in experiments ->
    (* One [run_one] call per experiment: with one job this is the work
       [run_many] does over the whole registry, and it gives the trace one
       span per experiment.  An experiment that raises is recorded as
       failed; the others still run. *)
    let outcomes =
      List.map
        (fun (e : Registry.experiment) ->
          ( e.Registry.id,
            probe.experiment ("exp." ^ e.Registry.id) (fun () ->
                match Runner.run_one ~quick:true ~jobs:1 e with
                | o -> Ok o
                | exception ex -> Error (Printexc.to_string ex)) ))
        experiments
    in
    Sweep_out
      { experiments = List.map (fun (id, o) -> (id, Result.map digest_outcome o)) outcomes;
        total_rounds =
          List.fold_left
            (fun acc (_, o) ->
              match o with
              | Ok (o : Runner.outcome) -> acc + o.result.Experiments.Common.total_rounds
              | Error _ -> acc)
            0 outcomes }

(* Real radio rounds one operation used: the paper's cost unit. *)
let rounds = function
  | Svc_out r -> r.Mux.engine.Radio.Engine.rounds_used
  | Fame_out { outcome; _ } -> outcome.Ame.Fame.engine.Radio.Engine.rounds_used
  | Sweep_out { total_rounds; _ } -> total_rounds

(* The SHA-256 of each quick experiment's rendered tables.  The sweep's
   inputs are the registry's own pinned seeds, so these hold for every
   [--seed]; an experiment whose output changes on purpose gets its new
   digest here, which the failing run prints. *)
let quick_digests =
  [ ("e1", "0c9e0c6fff7671fa6d1747625c0eee8f22af6f41cee4e52d698cc8e63d27f3ec");
    ("e2", "d3eced995d18d075dcc6d1448d6ecd690bb216ce273c14bebdbe44c5fa8508f0");
    ("e3", "e043417ca5172c39799ef41898abec52e9a84deeedbbd9b76a423d88d7297e73");
    ("e4", "480501bd32b428cb06c843b121c67415cfb9ec9448a2ab90b86734b656312814");
    ("e5", "8fa8563b58b9edb4da06f1d3a070133574733fd824cdedaf48b7b6e7134e0719");
    ("e6", "3576eef8029d8f6df52392cba86d5de40623da51eb7f099f769ae137d808ba4a");
    ("e7", "7d30b6f95b0be580ba4993f6383f76af364ac608a741b9ff7ff8c4f19810c834");
    ("e8", "6e486ff392dcb5ef7fb587acae21a270e9699d91a355447102a38e82ec4df009");
    ("e9", "ce964ba531c4d560d1294c0b4a0f12ab69d9727cafb646d975a90763eb572e42");
    ("e10", "1519205e66207daebf19a96e879332581ef36ff85a05ee65156485ec77ebfe16");
    ("e11", "cb5756284a6669f1e782586d95d525d07dc81277b6c6e2319ee01f99852a021b");
    ("e12", "d10aa4a52402d8505254dcd3cce531d01c4a32d737542212a51cdb46602bc022");
    ("e13", "b2efafcf3b983601aede966fcbcdb7b522ce778a871d9b732e6d6fbe3c0e0023");
    ("e14", "85d9f9963e59b1e45b283bccae9da1d000e71991ca61bd8f307b02526db2315d");
    ("e15", "5da73a2b2af8a1b5f5f9a235a51017d5bddc83385a3db58427ba956e33b49e41");
    ("e16", "94e319df43c444d074fb1de7588ba0a0b1a6e3c87f852c4460ad37f1be57cdf8");
    ("e17", "5fbdfbac78706cd0a40fe353c31741d71ad9643d7d98e24134ab423f809c1f03") ]

(* Share of what the operation set out to deliver that arrived: messages
   for the service, pairs for f-AME, experiments that returned their
   pinned output for the sweep. *)
let delivered_ratio = function
  | Svc_out r ->
    let s = r.Mux.stats in
    if s.Mux.offered = 0 then 0.0 else float_of_int s.Mux.delivered /. float_of_int s.Mux.offered
  | Fame_out { outcome; _ } ->
    if outcome.Ame.Fame.diverged then 0.0
    else
      let failed = List.length outcome.Ame.Fame.failed in
      float_of_int (fame_pairs - failed) /. float_of_int fame_pairs
  | Sweep_out { experiments; _ } ->
    let passed = List.filter (fun e -> Checks.experiment ~pinned:quick_digests e = []) experiments in
    float_of_int (List.length passed) /. float_of_int (List.length Registry.all)

(* The digest every run of one seed must reproduce. *)
let digest = function
  | Svc_out r -> Mux.output_digest r
  | Fame_out { outcome; _ } ->
    let buf = Buffer.create 256 in
    List.iter
      (fun ((v, w), body) -> Printf.bprintf buf "%d-%d=%s;" v w body)
      outcome.Ame.Fame.delivered;
    Printf.bprintf buf "|rounds=%d|moves=%d" outcome.Ame.Fame.engine.Radio.Engine.rounds_used
      outcome.Ame.Fame.moves;
    Crypto.Sha256.digest_hex (Buffer.contents buf)
  | Sweep_out { experiments; _ } ->
    Crypto.Sha256.digest_hex
      (String.concat ","
         (List.map
            (fun (id, o) -> match o with Ok d -> id ^ "=" ^ d | Error raised -> id ^ "!" ^ raised)
            experiments))
