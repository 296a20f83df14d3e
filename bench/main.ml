(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                 -- all experiment tables + micro
     dune exec bench/main.exe -- quick        -- smaller grids
     dune exec bench/main.exe -- e4 e16       -- selected experiments
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks only
     dune exec bench/main.exe -- service      -- + the benchsuite service workloads
     dune exec bench/main.exe -- population [--huge]  -- plain-timed big-n rows only
     dune exec bench/main.exe -- quick --jobs 4 --json BENCH.json

   --jobs N          worker domains for the parallel experiment runner
   --jobs-sweep L    re-run the experiments at each worker count in the
                     comma-separated list L, reporting wall clock per count;
                     exits 1 unless the output is byte-identical across them
   --json P          write structured results + per-experiment wall-clock to P

   Each experiment table regenerates one exhibit of the paper (Figure 3's
   three rows, plus the theorem-level claims); see EXPERIMENTS.md for the
   paper-vs-measured record.  The service and f-AME rows take their
   workload shapes, correctness checks and median from the [Benchsuite]
   library (benchsuite/), so they measure exactly what the repository
   benchmark measures. *)

open Bechamel
module Workload = Benchsuite.Workload
module Bench = Benchsuite.Bench
module Mux = Secure_channel.Mux

(* The seed every benchsuite workload here runs at. *)
let workload_seed = 1

(* -- micro-benchmarks: one Test.make per core operation -- *)

let sha_input_small = String.make 64 'x'
let sha_input_large = String.make 4096 'y'

(* Engine throughput benches: one "run" simulates [rounds_per_run] rounds, so
   rounds/sec = rounds_per_run / (ns_per_run / 1e9).  The 2t2 configuration is
   Figure 3's large-channel regime (C = 2t^2 at t = 8), where per-round channel
   resolution dominates.  The workload is a busy DGGN epoch: n/2 disjoint
   sender/receiver pairs, each pair hopping over its own deterministic channel
   schedule, while a sweep jammer spends the full budget every round — the hop
   arithmetic is trivial on purpose so the benchmark measures the engine's
   round machinery, not the node bodies. *)
let rounds_per_run = 200

(* One node of a busy DGGN epoch: even ids transmit to id + 1 and odd ids
   listen, each pair hopping over its own channel schedule for [rounds]
   rounds. *)
let hop_pair ~channels ~rounds id =
  let slot = id / 2 in
  let chan round = ((31 * round) + (17 * slot)) mod channels in
  if id land 1 = 0 then
    for round = 1 to rounds do
      Radio.Engine.transmit ~chan:(chan round)
        (Radio.Frame.Plain { src = id; dst = id + 1; body = "x" })
    done
  else
    for round = 1 to rounds do
      ignore (Radio.Engine.listen ~chan:(chan round))
    done

(* Every node busy under a full-budget sweep jammer; returns the simulated
   rounds, so rounds/sec need not trust the workload description. *)
let dggn_epoch ~n ~channels ~t ~rounds () =
  let cfg = Radio.Config.make ~n ~channels ~t ~seed:11L () in
  let adversary = Radio.Adversary.sweep_jammer ~channels ~budget:t in
  let result =
    Radio.Engine.run_nodes cfg ~adversary (fun (ctx : Radio.Engine.ctx) ->
        hop_pair ~channels ~rounds ctx.Radio.Engine.id)
  in
  result.Radio.Engine.rounds_used

let engine_bench ~name ~n ~channels ~t =
  Test.make ~name
    (Staged.stage (fun () -> ignore (dggn_epoch ~n ~channels ~t ~rounds:rounds_per_run ())))

(* f-AME inputs: the benchmark's fame-n2e4 shape (C = 2, t = 1, 4 disjoint
   pairs, null adversary), with only n varied. *)
let fame_inputs n =
  let w = Option.get (Workload.find Workload.Full "fame-n2e4") in
  Workload.inputs { w with Workload.kind = Workload.Fame { n } } ~seed:workload_seed

let fame_bench ~name ~n =
  let inputs = fame_inputs n in
  Test.make ~name (Staged.stage (fun () -> ignore (Workload.run inputs)))

(* n-scaling families: the same engine and f-AME workloads at growing node
   counts, so a baseline comparison shows how round-machinery and protocol
   costs scale.  The large instances (n >= 1024) only run outside quick
   mode — they dominate suite wall-clock and quick baselines skip them.
   The n = 10^5 member rides on the sparse engine rewrite; the n = 10^6
   population sits in the plain-timed `population --huge` families (see
   below) rather than under Bechamel, whose repeat-until-quota protocol is
   the wrong instrument for minutes-long single runs. *)
let scaling_ns ~quick = if quick then [ 64; 256 ] else [ 64; 256; 1024; 4096; 100_000 ]

let engine_scaling ~quick =
  List.map
    (fun n ->
      engine_bench ~name:(Printf.sprintf "engine/rounds-per-sec-n%d" n) ~n ~channels:16 ~t:4)
    (scaling_ns ~quick)

let fame_scaling ~quick =
  List.map
    (fun n -> fame_bench ~name:(Printf.sprintf "ame/fame-4-pairs-n%d" n) ~n)
    (scaling_ns ~quick)

(* K-scaling families for the bitset graph/game kernel.  [graph/vc-n-scaling]
   runs the exact minimum-vertex-cover solver on the complete graph K_n.
   [game/full-play] plays the starred-edge removal game to completion on
   K_n; the K8 member is the long-standing [game/full-play-K8] benchmark
   above.  K in {32, 64} only runs outside quick mode. *)
let kernel_ks ~quick = if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ]

let vc_scaling ~quick =
  List.map
    (fun n ->
      let g = Rgraph.Digraph.Dense.of_edges ~n (Rgraph.Workload.complete ~n) in
      Test.make ~name:(Printf.sprintf "graph/vc-n-scaling-K%d" n)
        (Staged.stage (fun () -> ignore (Rgraph.Vertex_cover.minimum_size_dense g))))
    (kernel_ks ~quick)

let game_full_play ~name ~n =
  let g = Rgraph.Digraph.Dense.of_edges (Rgraph.Workload.complete ~n) in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore
           (Game.Runner.play (Game.State.create_dense g ~t:2) Game.Referee.minimal_first)))

let game_scaling ~quick =
  List.filter_map
    (fun n ->
      if n = 8 then None (* covered by game/full-play-K8 *)
      else Some (game_full_play ~name:(Printf.sprintf "game/full-play-K%d" n) ~n))
    (kernel_ks ~quick)

let micro_tests ~quick =
  let greedy_move =
    let g = Rgraph.Digraph.Dense.of_edges (Rgraph.Workload.complete ~n:10) in
    let st = Game.State.create_dense g ~t:2 in
    Test.make ~name:"game/greedy-proposal"
      (Staged.stage (fun () -> ignore (Game.Greedy.proposal st)))
  in
  let game_full = game_full_play ~name:"game/full-play-K8" ~n:8 in
  let sha_small =
    Test.make ~name:"crypto/sha256-64B"
      (Staged.stage (fun () -> ignore (Crypto.Sha256.digest sha_input_small)))
  in
  let sha_large =
    Test.make ~name:"crypto/sha256-4KiB"
      (Staged.stage (fun () -> ignore (Crypto.Sha256.digest sha_input_large)))
  in
  let hmac =
    Test.make ~name:"crypto/hmac-sha256"
      (Staged.stage (fun () -> ignore (Crypto.Hmac.mac ~key:"key" sha_input_small)))
  in
  let dh =
    let rng = Prng.Rng.create 1L in
    Test.make ~name:"crypto/dh-keygen"
      (Staged.stage (fun () -> ignore (Crypto.Dh.generate rng)))
  in
  let seal =
    Test.make ~name:"crypto/seal-64B"
      (Staged.stage (fun () -> ignore (Crypto.Cipher.seal ~key:"k" ~nonce:7L sha_input_small)))
  in
  (* The mux's per-frame path: seal and open in place under a prepared key
     and scratch, at svc-small's 32 B and svc-bulk's 1040 B payloads. *)
  let ck = Crypto.Cipher.key "bench-key" and cs = Crypto.Cipher.scratch () in
  let seal_into len =
    let plain = Bytes.make len 'p' and out = Bytes.create (Crypto.Cipher.frame_size len) in
    Test.make
      ~name:(Printf.sprintf "crypto/seal-into-%dB" len)
      (Staged.stage (fun () -> Crypto.Cipher.seal_into ck cs ~nonce:7L plain ~len out ~pos:0))
  in
  let open_into len =
    let out = Bytes.create (Crypto.Cipher.frame_size len) in
    Crypto.Cipher.seal_into ck cs ~nonce:7L (Bytes.make len 'p') ~len out ~pos:0;
    let frame = Bytes.to_string out in
    Test.make
      ~name:(Printf.sprintf "crypto/open-into-%dB" len)
      (Staged.stage (fun () -> ignore (Crypto.Cipher.open_into ck cs frame ~pos:0)))
  in
  (* svc-jammed's slotted-ack check: the tag over an ack's 12 clear bytes,
     checked in place. *)
  let mac_ok =
    let frame = Bytes.make (12 + 32) 'a' in
    Crypto.Cipher.mac_into ck cs ~nonce:7L frame ~off:0 ~len:12 frame ~pos:12;
    let blob = Bytes.to_string frame in
    Test.make ~name:"crypto/mac-ok-12B"
      (Staged.stage (fun () ->
           ignore (Crypto.Cipher.mac_ok ck cs ~nonce:7L blob ~off:0 ~len:12 ~tag:12)))
  in
  let engine_round =
    Test.make ~name:"radio/1000-round-run"
      (Staged.stage (fun () ->
           let cfg = Radio.Config.make ~n:8 ~channels:2 ~t:1 ~seed:3L () in
           ignore
             (Radio.Engine.run_nodes cfg ~adversary:Radio.Adversary.null
                (fun (ctx : Radio.Engine.ctx) ->
                  for _ = 1 to 1000 do
                    if ctx.Radio.Engine.id = 0 then
                      Radio.Engine.transmit ~chan:0
                        (Radio.Frame.Plain { src = 0; dst = 1; body = "x" })
                    else ignore (Radio.Engine.listen ~chan:0)
                  done))))
  in
  (* Parked listen-series: 2,000 listeners each park one 86-hop
     [listen_random] series (the fame-n2e4 feedback reps), which the engine
     draws, and read every hop back from its history ring, beside one
     transmitter per channel. *)
  let parked_series =
    let listeners = 2_000 and channels = 2 and hops = 86 in
    let heard = ref 0 in
    Test.make ~name:"radio/listen-series-86"
      (Staged.stage (fun () ->
           let cfg =
             Radio.Config.make ~n:(listeners + channels) ~channels ~t:1 ~seed:3L ()
           in
           ignore
             (Radio.Engine.run_nodes cfg ~adversary:Radio.Adversary.null
                (fun (ctx : Radio.Engine.ctx) ->
                  let id = ctx.Radio.Engine.id in
                  if id < channels then
                    for _ = 1 to hops do
                      Radio.Engine.transmit ~chan:id
                        (Radio.Frame.Plain { src = id; dst = -1; body = "x" })
                    done
                  else
                    let v =
                      Radio.Engine.listen_random ~rng:ctx.Radio.Engine.rng ~bound:channels
                        ~wait:0 ~len:hops
                    in
                    for j = 0 to hops - 1 do
                      if Option.is_some (Radio.Engine.heard v j) then incr heard
                    done))))
  in
  let fame_small = fame_bench ~name:"ame/fame-4-pairs-t1" ~n:25 in
  let prng =
    let rng = Prng.Rng.create 9L in
    Test.make ~name:"prng/bits64" (Staged.stage (fun () -> ignore (Prng.Rng.bits64 rng)))
  in
  (* Bounded draws: the power-of-two mask path, the division path, and one
     feedback phase's parked series (86 = the fame-n2e4 feedback reps),
     booked into a 2-channel ring of 128 rows from row 64, so it wraps, and
     a 1-byte hop store. *)
  let prng_int bound =
    let rng = Prng.Rng.create 9L in
    Test.make
      ~name:(Printf.sprintf "prng/int-bound-%d" bound)
      (Staged.stage (fun () -> ignore (Prng.Rng.int rng bound)))
  in
  let prng_tally =
    let rng = Prng.Rng.create 9L in
    let counts = Array.make (128 * 2) 0 and store = Bytes.make 86 '\000' in
    Test.make ~name:"prng/tally-int-86"
      (Staged.stage (fun () ->
           Prng.Rng.tally_int rng 2 ~counts ~stride:2 ~row:64 ~rows:128 ~store ~cell:1 ~at:0
             ~len:86))
  in
  let engine_small = engine_bench ~name:"engine/rounds-per-sec-small" ~n:8 ~channels:2 ~t:1 in
  let engine_2t2 =
    engine_bench ~name:"engine/rounds-per-sec-2t2" ~n:64 ~channels:128 ~t:8
  in
  let prf_keyed =
    let handle = Crypto.Prf.Keyed.create "shared-hop-key" in
    Test.make ~name:"crypto/prf-channel-hop-keyed"
      (Staged.stage (fun () ->
           ignore (Crypto.Prf.Keyed.below handle ~label:"channel-hop" ~counter:12345 128)))
  in
  let hmac_keyed =
    let handle = Crypto.Hmac.key "key" in
    Test.make ~name:"crypto/hmac-sha256-keyed"
      (Staged.stage (fun () -> ignore (Crypto.Hmac.mac_keyed handle sha_input_small)))
  in
  [ prng; prng_int 2; prng_int 6; prng_int 1000; prng_tally; sha_small; sha_large; hmac;
    hmac_keyed; dh; seal; seal_into 32; seal_into 1040; open_into 32; open_into 1040; mac_ok;
    greedy_move;
    game_full; engine_round; parked_series; fame_small; engine_small; engine_2t2; prf_keyed ]
  @ vc_scaling ~quick @ game_scaling ~quick @ engine_scaling ~quick @ fame_scaling ~quick

(* Runs the Bechamel suite and prints one time-per-run line per bench. *)
let run_micro ~quick =
  print_endline "\n== Micro-benchmarks (Bechamel, monotonic clock) ==\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let by_time = Analyze.all ols clock (Benchmark.all cfg [ clock ] test) in
      Det.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | Some [] | None -> nan
          in
          if ns > 1_000_000.0 then Printf.printf "  %-28s %10.2f ms/run\n" name (ns /. 1e6)
          else if ns > 1_000.0 then Printf.printf "  %-28s %10.2f us/run\n" name (ns /. 1e3)
          else Printf.printf "  %-28s %10.2f ns/run\n" name ns)
        by_time)
    (micro_tests ~quick)

(* -- population-scale benches (plain timed, not Bechamel) --

   The n = 10^5..10^6 families: each row is a full engine (or f-AME) run
   timed wall-clock, repeated [pop_runs] times, reporting the median —
   Bechamel's repeat-until-quota protocol would either truncate to one
   unstable sample or burn minutes per row.  Each row reports rounds/sec
   over the median run (timing is reported, never gated).

   The dense rows reproduce Figure 3's three channel regimes (C = t+1, 2t,
   2t^2 at t = 8) as busy DGGN epochs at population scale; the sparse row
   is the engine's reason to exist at n = 10^5 (a handful of active pairs,
   everyone else parked in the wake queue); the fame row is the paper's
   protocol end-to-end.  `--huge` (the nightly leg) adds the n = 10^6
   members, single-run — at that scale one execution is minutes. *)

let pop_runs = 3

let pop_engine_sparse ~n ~rounds () =
  (* 8 active sender/receiver pairs hop channels for [rounds] rounds; the
     other n - 16 nodes idle the whole time.  The sparse core parks them
     once, so per-round cost tracks the 16 active nodes, not n. *)
  let channels = 16 and t = 4 in
  let cfg = Radio.Config.make ~n ~channels ~t ~seed:11L () in
  let active_pairs = 8 in
  let result =
    Radio.Engine.run_nodes cfg ~adversary:Radio.Adversary.null
      (fun (ctx : Radio.Engine.ctx) ->
        let id = ctx.Radio.Engine.id in
        if id < 2 * active_pairs then hop_pair ~channels ~rounds id
        else Radio.Engine.idle_for rounds)
  in
  result.Radio.Engine.rounds_used

(* One iteration = one [Schedule.build] over a busy 16-channel proposal plus
   a full [role_of] + [witness_channel] sweep across all n nodes — the
   protocol's per-move query pattern, dominated by the inverted role index.
   Returns the total query count, so the rounds/sec column reads as indexed
   role queries/sec (the build amortized in). *)
let pop_schedule ~n ~iters () =
  let channels = 16 in
  let proposal = List.init channels (fun i -> Game.State.Edge (2 * i, (2 * i) + 1)) in
  let scratch = Ame.Schedule.make_scratch () in
  let acc = ref 0 in
  for _ = 1 to iters do
    let sched =
      Ame.Schedule.build ~scratch ~proposal ~surrogates:(fun _ -> [||]) ~n
        ~witness_size:channels ~watchers_per_channel:(3 * channels) ()
    in
    for id = 0 to n - 1 do
      (match Ame.Schedule.role_of sched id with
      | Ame.Schedule.Broadcast _ -> incr acc
      | Ame.Schedule.Receive _ | Ame.Schedule.Watch _ | Ame.Schedule.Off -> ());
      match Ame.Schedule.witness_channel sched id with Some _ -> incr acc | None -> ()
    done
  done;
  ignore (Sys.opaque_identity !acc);
  iters * n

let pop_fame ~n =
  let inputs = fame_inputs n in
  fun () -> Workload.rounds (Workload.run inputs)

let population_rows ~huge =
  let t = 8 in
  let regimes = [ ("t+1", t + 1); ("2t", 2 * t); ("2t2", 2 * t * t) ] in
  let n5 = 100_000 in
  let dense ~n ~rounds ~runs suffix =
    List.map
      (fun (tag, channels) ->
        ( Printf.sprintf "population/engine-dense-%s-%s" tag suffix,
          runs,
          dggn_epoch ~n ~channels ~t ~rounds ))
      regimes
  in
  dense ~n:n5 ~rounds:200 ~runs:pop_runs "n1e5"
  @ [ ( "population/engine-sparse-n1e5",
        pop_runs,
        fun () -> pop_engine_sparse ~n:n5 ~rounds:5000 () );
      ("population/fame-pair-hop-n1e5", pop_runs, pop_fame ~n:n5);
      ( "schedule/build-role-sweep-n1e4",
        pop_runs,
        fun () -> pop_schedule ~n:10_000 ~iters:5_000 () );
      ( "schedule/build-role-sweep-n1e5",
        pop_runs,
        fun () -> pop_schedule ~n:n5 ~iters:500 () ) ]
  @
  if not huge then []
  else
    dense ~n:1_000_000 ~rounds:50 ~runs:1 "n1e6"
    @ [ ( "population/engine-sparse-n1e6",
          1,
          fun () -> pop_engine_sparse ~n:1_000_000 ~rounds:5000 () );
        ("population/fame-pair-hop-n1e6", 1, pop_fame ~n:1_000_000) ]

let run_population ~huge =
  print_endline "\n== Population-scale benches (plain timed, median of runs) ==\n";
  Printf.printf "  %-36s %6s %10s %12s  %s\n" "bench" "runs" "median s" "rounds/sec"
    "runs (s)";
  List.iter
    (fun (name, runs, work) ->
      let samples = List.init runs (fun _ -> Parallel.Clock.time work) in
      let rounds = fst (List.hd samples) in
      let med = Bench.median (List.map snd samples) in
      let rps = float_of_int rounds /. med in
      Printf.printf "  %-36s %6d %10.3f %12.0f  [%s]\n%!" name runs med rps
        (String.concat "; " (List.map (fun (_, s) -> Printf.sprintf "%.3f" s) samples)))
    (population_rows ~huge)

(* -- service throughput benches (plain timed, medians of alternating runs) --

   Each of the benchmark's service workloads (svc-small, svc-bulk,
   svc-jammed; see benchsuite/workload.ml) at seed 1, under both ack modes
   of the multiplexed secure channel.  The two modes of a workload run
   [service_runs] times in strict alternation (S,P,S,P,...) so slow drift
   in machine load cancels out of the comparison; the reported figure is
   the median, reported as delivered messages per second.

   Every run passes the benchmark's own checks ([Checks.svc]) and
   reproduces the first run's digest, or the harness exits 1.  The exact
   engine round count and digest of each cell are pinned in tier-1
   (test/test_mux.ml, "service pins"); the table prints the p99 delivery
   latency in emulated rounds beside the throughput. *)

let service_runs = 3
(* Slotted first: the piggyback ratio divides by its throughput. *)
let ack_modes = [ ("slotted", Mux.Slotted); ("piggyback", Mux.Piggybacked) ]

let mux_result = function
  | Workload.Svc_out r -> r
  | Workload.Fame_out _ | Workload.Sweep_out _ -> invalid_arg "not a service result"

let run_service () =
  print_endline
    "\n== Service throughput (benchsuite workloads, median of alternating runs) ==\n";
  Printf.printf "  %-22s %9s %8s %7s %9s %9s %6s %4s\n" "cell" "delivered" "offered" "rounds"
    "median s" "msgs/s" "pig-x" "p99";
  let service_workload (w : Workload.t) s =
    let cells =
      List.map
        (fun (mode, ack_mode) ->
          let cell =
            { w with
              Workload.name = Printf.sprintf "%s-%s" w.Workload.name mode;
              kind = Workload.Svc { s with Workload.ack_mode = Some ack_mode } }
          in
          (cell, Workload.inputs cell ~seed:workload_seed, Bench.tally cell, ref []))
        ack_modes
    in
    for _ = 1 to service_runs do
      List.iter
        (fun (_, inputs, tally, samples) ->
          let res, wall_s = Bench.timed_op inputs in
          Bench.check tally res;
          samples := (res, wall_s) :: !samples)
        cells
    done;
    let measured =
      List.map
        (fun ((cell : Workload.t), _, (tally : Bench.tally), samples) ->
          if tally.Bench.failed > 0 then begin
            Printf.eprintf "service/%s: %s\n" cell.Workload.name
              (String.concat "; " tally.Bench.violations);
            exit 1
          end;
          (* Every run reproduced the first one's digest, so any run stands for all. *)
          let res = fst (List.hd !samples) in
          let wall = Bench.median (List.map snd !samples) in
          let delivered = (mux_result res).Mux.stats.Mux.delivered in
          (cell.Workload.name, res, wall, float_of_int delivered /. wall))
        cells
    in
    let slotted_mps = match measured with (_, _, _, mps) :: _ -> mps | [] -> nan in
    List.iter
      (fun (name, res, wall, mps) ->
        let r = mux_result res in
        let p99 = Mux.latency_percentile r 0.99 in
        (* Throughput ratio, not raw wall-clock: the two ack modes deliver
           different message counts under jamming. *)
        let pig_x =
          match r.Mux.spec.Mux.ack_mode with
          | Mux.Piggybacked -> Printf.sprintf "%.2fx" (mps /. slotted_mps)
          | Mux.Slotted -> "-"
        in
        Printf.printf "  %-22s %9d %8d %7d %9.3f %9.0f %6s %4d\n%!" name
          r.Mux.stats.Mux.delivered r.Mux.stats.Mux.offered (Workload.rounds res) wall mps
          pig_x p99)
      measured
  in
  List.iter
    (fun (w : Workload.t) ->
      match w.Workload.kind with
      | Workload.Svc s -> service_workload w s
      | Workload.Fame _ | Workload.Sweep -> ())
    (Workload.all Workload.Full)

let render_outcome (o : Experiments.Runner.outcome) =
  Format.printf "@.### %s: %s@." o.experiment.Experiments.Registry.id
    o.experiment.Experiments.Registry.title;
  Experiments.Runner.render Format.std_formatter o;
  Format.print_flush ()

let timing_summary outcomes =
  print_newline ();
  print_endline "== Experiment wall-clock summary ==";
  List.iter
    (fun (o : Experiments.Runner.outcome) ->
      Printf.printf "  %-4s %8.2fs  %12d simulated rounds\n"
        o.Experiments.Runner.experiment.Experiments.Registry.id o.wall_s
        o.result.Experiments.Common.total_rounds)
    outcomes;
  Printf.printf "  total %7.2fs\n"
    (List.fold_left (fun acc (o : Experiments.Runner.outcome) -> acc +. o.wall_s) 0.0 outcomes)

(* --jobs-sweep: re-run the selected experiments once per requested worker
   count and report wall clock.  The digest over the concatenated rendered
   tables must be identical across counts, or the harness exits 1. *)
let jobs_sweep ~quick ~experiments jobs_list =
  print_newline ();
  print_endline "== --jobs sweep (wall-clock per worker count) ==";
  let shas =
    List.map
      (fun jobs ->
        let outcomes, wall_s =
          Parallel.Clock.time (fun () -> Experiments.Runner.run_many ~quick ~jobs experiments)
        in
        let sha =
          Crypto.Sha256.digest_hex
            (String.concat ""
               (List.map (Format.asprintf "%a" Experiments.Runner.render) outcomes))
        in
        Printf.printf "  jobs=%-3d %8.2fs  output sha256 %s...\n%!" jobs wall_s
          (String.sub sha 0 12);
        sha)
      jobs_list
  in
  if List.for_all (String.equal (List.hd shas)) shas then
    print_endline "  output: byte-identical across all worker counts"
  else begin
    print_endline "  FAIL: output differs across worker counts (nondeterminism!)";
    exit 1
  end

type cli = {
  quick : bool;
  micro : bool;
  population : bool;
  huge : bool;
  service : bool;
  jobs : int;
  jobs_sweep : int list;
  json : string option;
  ids : string list;
}

let usage () =
  Printf.eprintf
    "usage: main.exe [quick] [micro] [service] \
     [population [--huge]] [ID...] [--jobs N] [--jobs-sweep N,N,...] [--json PATH]\n\
     available: %s, micro, service, population\n"
    (String.concat ", " Experiments.Registry.ids);
  exit 1

let parse_jobs_sweep spec =
  let parts = String.split_on_char ',' spec in
  let jobs =
    List.filter_map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some j when j >= 1 -> Some j
        | _ -> None)
      parts
  in
  if List.length jobs <> List.length parts || jobs = [] then usage () else jobs

let parse_args args =
  let rec go acc = function
    | [] -> acc
    | "quick" :: rest -> go { acc with quick = true } rest
    | "micro" :: rest -> go { acc with micro = true } rest
    | "population" :: rest -> go { acc with population = true } rest
    | "service" :: rest -> go { acc with service = true } rest
    | "--huge" :: rest -> go { acc with huge = true } rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some jobs when jobs >= 1 -> go { acc with jobs } rest
       | _ -> usage ())
    | "--jobs-sweep" :: spec :: rest -> go { acc with jobs_sweep = parse_jobs_sweep spec } rest
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | id :: rest ->
      if Experiments.Registry.find id = None then usage ()
      else go { acc with ids = acc.ids @ [ id ] } rest
  in
  go
    { quick = false; micro = false; population = false; huge = false; service = false;
      jobs = Parallel.default_jobs (); jobs_sweep = [];
      json = None; ids = [] }
    args

(* Bare `main.exe` (or just `quick`) keeps the historical behavior: every
   experiment table, then the micro-benchmarks.  `micro` alone skips the
   tables; explicit ids skip micro unless it is also requested. *)
let run_suite cli =
  let experiments =
    match cli.ids with
    | [] -> Experiments.Registry.all
    | ids -> List.filter_map Experiments.Registry.find ids
  in
  if cli.ids <> [] || not cli.micro then begin
    let outcomes = Experiments.Runner.run_many ~quick:cli.quick ~jobs:cli.jobs experiments in
    List.iter render_outcome outcomes;
    timing_summary outcomes;
    Option.iter
      (fun path ->
        match Experiments.Runner.write_json ~path ~quick:cli.quick ~jobs:cli.jobs outcomes with
        | () -> Printf.printf "structured results written to %s\n" path
        | exception Sys_error msg ->
          Printf.eprintf "cannot write --json results: %s\n" msg;
          exit 1)
      cli.json
  end;
  if cli.jobs_sweep <> [] then jobs_sweep ~quick:cli.quick ~experiments cli.jobs_sweep;
  if cli.micro || cli.ids = [] then run_micro ~quick:cli.quick;
  if cli.service then run_service ()

(* `population` is its own mode: the big-n plain-timed families, no
   experiment tables, no Bechamel micro suite. *)
let () =
  let cli = parse_args (List.tl (Array.to_list Sys.argv)) in
  if cli.population then run_population ~huge:cli.huge else run_suite cli
