(* One benchmark run of one workload: the untraced timed window that gives
   the end-to-end metrics, or the traced run that gives the per-layer
   ones. *)

module Mux = Secure_channel.Mux

type metric = { name : string; value : float; unit : string }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* As Python's statistics.median, which the spread checks use: the mean of
   the two middle values when there is an even number of them. *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n land 1 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let fastest = List.fold_left Float.min Float.infinity

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let violations ~null = function
  | Workload.Svc_out r -> Checks.svc ~null r
  | Workload.Fame_out { outcome; expected } -> Checks.fame ~expected outcome
  | Workload.Sweep_out { experiments; _ } -> Checks.sweep ~pinned:Workload.quick_digests experiments

(* Operations are checked as they finish; every operation of one seed must
   also reproduce the first one's digest. *)
type tally = {
  null : bool;
  mutable expect : string option;
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
}

let tally (w : Workload.t) =
  let null = match w.Workload.kind with Workload.Svc s -> not s.Workload.jammed | _ -> true in
  { null; expect = None; attempted = 0; failed = 0; violations = [] }

let record tl violations =
  tl.attempted <- tl.attempted + 1;
  if violations <> [] then begin
    tl.failed <- tl.failed + 1;
    tl.violations <- tl.violations @ List.filter (fun v -> not (List.mem v tl.violations)) violations
  end

let same tl digest =
  match tl.expect with
  | None ->
    tl.expect <- Some digest;
    []
  | Some expect -> Checks.same_digest ~expect digest

let check tl res = record tl (violations ~null:tl.null res @ same tl (Workload.digest res))

let timed_op inputs =
  let t0 = now_s () in
  let res = Workload.run inputs in
  (res, now_s () -. t0)

(* Set-up is building the inputs from the seed plus the first operation,
   which grows the heap and fills caches; it is the untimed warm-up before
   the window. *)
let setup w ~seed =
  let t0 = now_s () in
  let inputs = Workload.inputs w ~seed in
  let res = Workload.run inputs in
  (inputs, res, now_s () -. t0)

(* What a fresh process reports of its set-up, as one JSON line. *)
let setup_child (w : Workload.t) ~seed =
  let tl = tally w in
  let _, res, dt = setup w ~seed in
  let open Experiments.Json in
  to_string
    (Obj
       [ ("setup_s", Float dt);
         ("digest", String (Workload.digest res));
         ("violations", List (List.map (fun v -> String v) (violations ~null:tl.null res))) ])

(* Runs [setup_child] in a fresh process of this same program and waits
   for it. *)
let fresh_setup (w : Workload.t) ~seed ~scale =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; w.Workload.name; "--seed"; string_of_int seed; "--setup-only" ]
    @ (match scale with Workload.Smoke -> [ "--smoke" ] | Workload.Full -> [])
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let module Json = Experiments.Json in
  let doc = match (status, Json.of_string (String.trim out)) with Unix.WEXITED 0, Ok d -> Some d | _ -> None in
  let field k f = Option.bind doc (fun d -> Option.bind (Json.member k d) f) in
  match (field "setup_s" Json.to_float_opt, field "digest" Json.to_string_opt, field "violations" Json.to_list) with
  | Some dt, Some digest, Some vs -> Ok (dt, digest, List.filter_map Json.to_string_opt vs)
  | _ -> Error (Printf.sprintf "fresh set-up process failed: %s" (String.trim out))

let setup_runs = 5

(* The reference kernel: a fixed computation in plain OCaml that calls
   only the standard library (hashing into a table, allocating and sorting
   a list), so it shares the workloads' make-up (allocation, minor
   collections, pointer chasing) and none of their code.  On a shared host
   the neighbours slow this process down by up to 2x for minutes at a
   time; such a slowdown stretches this kernel about as much as it
   stretches an op, while tight loops over registers or one array barely
   feel it. *)
let reference () =
  let t0 = now_s () in
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 65535) (string_of_int i)
  done;
  let l = List.sort compare (List.init 20_000 (fun i -> ((i * 31337) land 4095, i))) in
  let m = List.fold_left (fun acc (k, v) -> if Hashtbl.mem h k then acc + v else acc - v) 0 l in
  ignore (Sys.opaque_identity m);
  now_s () -. t0

(* [setup_s] is the median of [setup_runs] set-ups, each in a fresh
   process: this one, whose set-up is also the warm-up before the window,
   and the rest spawned at even intervals through the window, so that they
   sample the host's load across the run rather than one moment of it.

   In the window, operations run back to back until the next one would end
   past [seconds] (at least one).  Each op starts on a collected heap, so
   every op does the same GC work, and the reference kernel runs before
   each op and once after the last.  [op_ref] is the median over ops of
   the op's wall time divided by the mean of the kernel times on either
   side of it. *)
let end_to_end (w : Workload.t) ~seed ~seconds ~scale =
  let tl = tally w in
  let inputs, first, own_setup = setup w ~seed in
  check tl first;
  let fresh = ref [] in
  let spawn () =
    match fresh_setup w ~seed ~scale with
    | Ok (dt, digest, vs) ->
      record tl (vs @ same tl digest);
      fresh := dt :: !fresh
    | Error msg -> record tl [ msg ]
  in
  let spawned = ref 0 in
  let due () = float_of_int !spawned *. seconds /. float_of_int (setup_runs - 1) in
  let kernel () =
    Gc.full_major ();
    let r = reference () in
    Gc.full_major ();
    r
  in
  let ops = ref [] and refs = ref [] and last = ref first in
  let start = now_s () in
  let fits () = match !ops with [] -> true | dt :: _ -> now_s () -. start +. dt <= seconds in
  while fits () do
    if !spawned < setup_runs - 1 && now_s () -. start >= due () then begin
      incr spawned;
      spawn ()
    end;
    refs := kernel () :: !refs;
    let res, dt = timed_op inputs in
    ops := dt :: !ops;
    last := res;
    check tl res
  done;
  refs := kernel () :: !refs;
  while !spawned < setup_runs - 1 do
    incr spawned;
    spawn ()
  done;
  let res = !last in
  let ops = List.rev !ops and refs = Array.of_list (List.rev !refs) in
  let op_ref = median (List.mapi (fun i dt -> dt /. ((refs.(i) +. refs.(i + 1)) /. 2.0)) ops) in
  let wall_s = median ops in
  let setups = own_setup :: List.rev !fresh in
  let notes =
    [ Printf.sprintf "%s seed=%d: %d timed ops in %.1f s; op wall median %.4f s, fastest %.4f s"
        w.Workload.name seed (List.length ops) (now_s () -. start) wall_s
        (fastest ops);
      Printf.sprintf "op wall samples [%s]" (String.concat " " (List.map (Printf.sprintf "%.4f") ops));
      Printf.sprintf "reference kernel median %.2f ms, samples [%s]"
        (median (Array.to_list refs) *. 1e3)
        (String.concat " " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.2f" (r *. 1e3)) refs)));
      Printf.sprintf "setup_s samples, one per fresh process [%s]"
        (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
      Printf.sprintf "digest %s" (Option.value tl.expect ~default:"-") ]
    @ (match res with
      | Workload.Svc_out r ->
        [ Printf.sprintf "msgs_per_s %.0f (delivered %d / op wall median); latency p50 %d p99 %d emulated rounds"
            (float_of_int r.Mux.stats.Mux.delivered /. wall_s)
            r.Mux.stats.Mux.delivered (Mux.latency_percentile r 0.50)
            (Mux.latency_percentile r 0.99) ]
      | Workload.Fame_out { outcome; _ } ->
        [ Printf.sprintf "exchange_s %.3f, exchange_rounds %d, moves %d" wall_s
            outcome.Ame.Fame.engine.Radio.Engine.rounds_used outcome.Ame.Fame.moves ]
      | Workload.Sweep_out _ -> [ Printf.sprintf "sweep_s %.4f" wall_s ])
    @ tl.violations
  in
  { correct = tl.failed = 0;
    attempted = tl.attempted;
    failed = tl.failed;
    notes;
    metrics =
      [ { name = "op_ref"; value = op_ref; unit = "ref" };
        { name = "rounds_per_op"; value = float_of_int (Workload.rounds res); unit = "rounds" };
        { name = "delivered_ratio"; value = Workload.delivered_ratio res; unit = "ratio" };
        { name = "setup_s"; value = median setups; unit = "s" };
        { name = "heap_peak_mb"; value = heap_peak_mb (); unit = "MB" } ] }

(* -- replays of public entry points at the workload's sizes -- *)

(* Repeat [f] (which does [per_call] units of work) for at least [min_s]
   and return the fastest time per unit, in ns.  The traced run compares
   replays with traced ops taken moments apart, and a shared host's noise
   only ever adds time, so both sides use their fastest sample. *)
let per_unit_ns ~min_s ~per_call f =
  let samples = ref [] and start = now_s () in
  while List.length !samples < 5 || now_s () -. start < min_s do
    let t0 = now_s () in
    f ();
    samples := ((now_s () -. t0) *. 1e9 /. float_of_int per_call) :: !samples
  done;
  fastest !samples

type crypto = { seal : float; open_ : float; mac : float; verify : float; epoch_key : float; sha_mb_s : float }

(* Batch size = frames per prepare (one per logical channel); plaintext =
   the mux's 16-byte frame header plus the payload; ack MAC input = 16
   bytes. *)
let crypto_replay ~min_s (spec : Mux.spec) =
  let module Cipher = Crypto.Cipher in
  let module Hmac = Crypto.Hmac in
  let batch = spec.Mux.logical and size = 16 + spec.Mux.payload in
  let group = Crypto.Prf.Keyed.create spec.Mux.key in
  let epoch_key () =
    let raw = Crypto.Prf.Keyed.bytes group ~label:"mux-epoch" ~counter:1 in
    (Cipher.key raw, Hmac.key (Crypto.Sha256.digest ("mux-ack|" ^ raw)))
  in
  let ck, ak = epoch_key () in
  let scratch = Cipher.scratch () in
  let msgs = Array.init batch (fun i -> String.make size (Char.chr (i land 0xFF))) in
  let nonces = Array.init batch Int64.of_int in
  let sealed = Cipher.seal_batch ck scratch ~nonces msgs in
  let acks = Array.init batch (fun i -> Printf.sprintf "ack|%012d" i) in
  let tags = Hmac.mac_batch ak acks in
  let per_frame f = per_unit_ns ~min_s ~per_call:batch f in
  let seal = per_frame (fun () -> ignore (Cipher.seal_batch ck scratch ~nonces msgs)) in
  let open_ = per_frame (fun () -> ignore (Cipher.open_batch ck scratch sealed)) in
  let mac = per_frame (fun () -> ignore (Hmac.mac_batch ak acks)) in
  let verify = per_frame (fun () -> ignore (Hmac.verify_batch ak ~tags acks)) in
  let epoch_key = per_unit_ns ~min_s ~per_call:1 (fun () -> ignore (epoch_key ())) in
  let sha_ns = per_frame (fun () -> Array.iter (fun m -> ignore (Crypto.Sha256.digest m)) msgs) in
  { seal; open_; mac; verify; epoch_key; sha_mb_s = float_of_int size /. sha_ns *. 1e3 }

(* One schedule build and one greedy proposal at the exchange's size, as
   every node runs them on every move. *)
let ame_replay ~min_s (cfg : Radio.Config.t) pairs =
  let n = cfg.Radio.Config.n and channels = cfg.Radio.Config.channels and t = cfg.Radio.Config.t in
  let state =
    Game.State.create_dense ~proposal_size:channels ~min_proposal:(t + 1)
      (Rgraph.Digraph.Dense.of_edges pairs) ~t
  in
  let proposal = Option.get (Game.Greedy.proposal state) in
  let scratch = Ame.Schedule.make_scratch () in
  let watchers = Ame.Params.watchers_per_channel Ame.Params.default ~budget:t ~channels in
  let build () =
    ignore
      (Ame.Schedule.build ~scratch ~proposal ~surrogates:(fun _ -> [||]) ~n ~witness_size:channels
         ~watchers_per_channel:watchers ())
  in
  ( per_unit_ns ~min_s ~per_call:1000 (fun () ->
        for _ = 1 to 1000 do
          build ()
        done)
    /. 1e3,
    per_unit_ns ~min_s ~per_call:1000 (fun () ->
        for _ = 1 to 1000 do
          ignore (Game.Greedy.proposal state)
        done)
    /. 1e3 )

(* -- the traced run -- *)

let per_layer (w : Workload.t) ~seed ~scale ~spans_path =
  let tl = tally w in
  let inputs = Workload.inputs w ~seed in
  check tl (Workload.run inputs);
  (* Pairs of untraced and traced operations. *)
  let k, min_s = match scale with Workload.Smoke -> (1, 0.0) | Workload.Full -> (3, 0.2) in
  let tr = Trace.create () in
  Trace.start_gc tr;
  let oracle = ref None in
  let probe = Trace.probe tr ~oracle:(fun o -> oracle := Some o) in
  let first, last, classify =
    match inputs with
    | Workload.Svc_in { spec; _ } ->
      let rpe = Mux.real_rounds_per_emulated spec in
      (* Where [mux.mli] documents the central step: after the end sync
         (piggybacked), or after the mid and end syncs (slotted). *)
      let prepare pos =
        match spec.Mux.ack_mode with
        | Mux.Piggybacked -> pos = rpe - 1
        | Mux.Slotted ->
          let s = (rpe - 2) / 2 in
          pos = s || pos = (2 * s) + 1
      in
      ( "mux.startup",
        "mux.finish",
        fun ~round ~next:_ -> if prepare (round mod rpe) then "mux.prepare" else "radio.round" )
    | Workload.Fame_in _ ->
      (* Nodes post a message round's schedule just before performing it,
         so the span ending at such a round's [act] built the schedule. *)
      ( "ame.startup",
        "ame.finish",
        fun ~round:_ ~next ->
          match !oracle with
          | Some o when Option.is_some (Ame.Oracle.get o ~round:next) -> "ame.schedule"
          | _ -> "radio.round" )
    | Workload.Sweep_in _ -> ("exp.startup", "exp.finish", fun ~round:_ ~next:_ -> "radio.round")
  in
  (* Untraced and traced operations alternate, each on a settled heap, so
     drift and leftover GC work cancel out of trace.overhead, which
     compares the fastest of each.  The GC counter deltas come from the
     untraced ones.  Service runs replay the crypto right after each traced
     operation; the crypto estimate divides the fastest replays by the
     fastest traced operation. *)
  let minor = ref 0.0 and major = ref 0.0 and collections = ref 0 in
  let rounds =
    List.init k (fun _ ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let base = timed_op inputs in
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        major := !major +. g1.Gc.major_words -. g0.Gc.major_words;
        collections := !collections + g1.Gc.major_collections - g0.Gc.major_collections;
        Gc.full_major ();
        let traced = Trace.op tr ~first ~last ~classify (fun () -> Workload.run ~probe inputs) in
        let replay =
          match inputs with
          | Workload.Svc_in { spec; _ } -> Some (crypto_replay ~min_s spec)
          | _ -> None
        in
        (base, traced, replay))
  in
  let base = List.map (fun (b, _, _) -> b) rounds and traced = List.map (fun (_, t, _) -> t) rounds in
  List.iter (fun (r, _) -> check tl r) (base @ traced);
  let base_s = fastest (List.map snd base) and traced_s = fastest (List.map snd traced) in
  let per_op x = x /. float_of_int k in
  (* The exchange once more on a 2-domain pool: sharding splits the harvest
     scan, but the fiber resumes stay on one domain. *)
  let pool2 =
    match w.Workload.kind with
    | Workload.Fame _ ->
      Gc.full_major ();
      let res, dt = Parallel.run ~jobs:2 (fun () -> timed_op inputs) in
      check tl res;
      base_s /. dt
    | _ -> 0.0
  in
  let res = fst (List.hd traced) in
  let led = Trace.ledger tr in
  let share layer =
    let self = Option.value (List.assoc_opt layer led.Trace.self_ns) ~default:0 in
    float_of_int self /. float_of_int led.Trace.wall_ns
  in
  let ms name f = f (Trace.durations tr name) /. 1e6 in
  let count name v = { name; value = float_of_int v; unit = "count" } in
  let ratio name value = { name; value; unit = "ratio" } in
  let engine =
    match res with
    | Workload.Svc_out r -> Some r.Mux.engine
    | Workload.Fame_out { outcome; _ } -> Some outcome.Ame.Fame.engine
    | Workload.Sweep_out _ -> None
  in
  let stat f = match engine with Some e -> f e.Radio.Engine.stats | None -> 0 in
  let radio =
    [ { name = "radio.round_us_p50"; value = ms "radio.round" (percentile 0.5) *. 1e3; unit = "us" };
      { name = "radio.round_us_p99"; value = ms "radio.round" (percentile 0.99) *. 1e3; unit = "us" };
      ratio "radio.share" (share "radio");
      count "radio.rounds" (Workload.rounds res);
      count "radio.tx" (stat (fun s -> s.Radio.Transcript.Stats.honest_transmissions));
      count "radio.deliveries" (stat (fun s -> s.Radio.Transcript.Stats.deliveries));
      count "radio.collisions" (stat (fun s -> s.Radio.Transcript.Stats.collisions));
      ratio "radio.pool2_speedup" pool2 ]
  in
  let mstat f = match res with Workload.Svc_out r -> f r.Mux.stats | _ -> 0 in
  let lat p = match res with Workload.Svc_out r -> Mux.latency_percentile r p | _ -> 0 in
  let delivered = mstat (fun s -> s.Mux.delivered) in
  let mux =
    [ { name = "mux.prepare_ms_p50"; value = ms "mux.prepare" (percentile 0.5); unit = "ms" };
      { name = "mux.prepare_ms_p99"; value = ms "mux.prepare" (percentile 0.99); unit = "ms" };
      ratio "mux.share" (share "mux");
      { name = "mux.startup_ms"; value = ms "mux.startup" median; unit = "ms" };
      ratio "mux.frames_per_msg"
        (if delivered = 0 then 0.0
         else float_of_int (stat (fun s -> s.Radio.Transcript.Stats.honest_transmissions)) /. float_of_int delivered);
      count "mux.delivered" delivered;
      count "mux.retransmissions" (mstat (fun s -> s.Mux.retransmissions));
      count "mux.duplicates" (mstat (fun s -> s.Mux.duplicates));
      count "mux.shed" (mstat (fun s -> s.Mux.shed));
      count "mux.bad_frames" (mstat (fun s -> s.Mux.bad_frames));
      count "mux.stale_epoch" (mstat (fun s -> s.Mux.stale_epoch));
      count "mux.rekeys" (mstat (fun s -> s.Mux.rekeys));
      { name = "mux.latency_p50_rounds"; value = float_of_int (lat 0.50); unit = "rounds" };
      { name = "mux.latency_p99_rounds"; value = float_of_int (lat 0.99); unit = "rounds" } ]
  in
  (* An estimate from counts and replays.  Every transmission counts as a
     fresh seal: exact for piggybacked frames, which are re-sealed every
     round, an upper bound for slotted ones, whose retransmissions and
     repeated acks reuse cached frames.  Slotted mode splits the air evenly
     between sealed data and MACed acks. *)
  let crypto_share ((r : Workload.result), wall_s) (c : crypto) =
    match (inputs, r) with
    | Workload.Svc_in { spec; _ }, Workload.Svc_out r ->
      let tx = float_of_int r.Mux.engine.Radio.Engine.stats.Radio.Transcript.Stats.honest_transmissions in
      let heard = float_of_int r.Mux.engine.Radio.Engine.stats.Radio.Transcript.Stats.deliveries in
      let est_ns =
        (match spec.Mux.ack_mode with
         | Mux.Piggybacked -> (tx *. c.seal) +. (heard *. c.open_)
         | Mux.Slotted ->
           (tx /. 2.0 *. (c.seal +. c.mac)) +. (heard /. 2.0 *. (c.open_ +. c.verify)))
        +. (float_of_int (r.Mux.stats.Mux.rekeys + 1) *. c.epoch_key)
      in
      est_ns /. (wall_s *. 1e9)
    | _ -> 0.0
  in
  let replays = List.filter_map (fun (_, _, c) -> c) rounds in
  let c =
    match replays with
    | [] -> { seal = 0.0; open_ = 0.0; mac = 0.0; verify = 0.0; epoch_key = 0.0; sha_mb_s = 0.0 }
    | _ ->
      let best f = fastest (List.map f replays) in
      { seal = best (fun c -> c.seal); open_ = best (fun c -> c.open_); mac = best (fun c -> c.mac);
        verify = best (fun c -> c.verify); epoch_key = best (fun c -> c.epoch_key);
        sha_mb_s = List.fold_left (fun acc c -> Float.max acc c.sha_mb_s) 0.0 replays }
  in
  let quickest = List.fold_left (fun a b -> if snd b < snd a then b else a) (List.hd traced) traced in
  let crypto =
    [ { name = "crypto.seal_ns"; value = c.seal; unit = "ns" };
      { name = "crypto.open_ns"; value = c.open_; unit = "ns" };
      { name = "crypto.mac_ns"; value = c.mac; unit = "ns" };
      { name = "crypto.verify_ns"; value = c.verify; unit = "ns" };
      { name = "crypto.epoch_key_us"; value = c.epoch_key /. 1e3; unit = "us" };
      { name = "crypto.sha256_mb_per_s"; value = c.sha_mb_s; unit = "MB/s" };
      ratio "crypto.share_est" (if replays = [] then 0.0 else crypto_share quickest c) ]
  in
  let build_us, proposal_us =
    match inputs with
    | Workload.Fame_in { cfg; pairs; _ } -> ame_replay ~min_s cfg pairs
    | _ -> (0.0, 0.0)
  in
  let ame =
    [ { name = "ame.schedule_ms_p50"; value = ms "ame.schedule" (percentile 0.5); unit = "ms" };
      ratio "ame.share" (share "ame");
      { name = "ame.startup_ms"; value = ms "ame.startup" median; unit = "ms" };
      count "ame.moves" (match res with Workload.Fame_out { outcome; _ } -> outcome.Ame.Fame.moves | _ -> 0);
      { name = "ame.build_us"; value = build_us; unit = "us" };
      { name = "game.proposal_us"; value = proposal_us; unit = "us" } ]
  in
  let exp =
    List.map
      (fun id -> { name = Printf.sprintf "exp.%s_ms" id; value = ms ("exp." ^ id) median; unit = "ms" })
      Experiments.Registry.ids
    @ [ ratio "exp.share" (share "exp") ]
  in
  let gc =
    [ ratio "gc.share" (float_of_int led.Trace.gc_ns /. float_of_int led.Trace.wall_ns);
      { name = "gc.minor_words_per_op"; value = per_op !minor; unit = "words" };
      { name = "gc.major_words_per_op"; value = per_op !major; unit = "words" };
      { name = "gc.major_collections_per_op"; value = per_op (float_of_int !collections); unit = "count" } ]
  in
  let unattributed = float_of_int led.Trace.unattributed_ns /. float_of_int led.Trace.wall_ns in
  let trace =
    [ ratio "trace.overhead" ((traced_s /. base_s) -. 1.0); ratio "trace.unattributed" unattributed ]
  in
  let metrics = radio @ mux @ crypto @ ame @ exp @ gc @ trace in
  (* Layer shares plus GC plus the uncovered gaps must add up to the traced
     wall; crypto.share_est is an estimate inside mux and not part of it. *)
  let total =
    List.fold_left
      (fun acc m ->
        if List.mem m.name [ "radio.share"; "mux.share"; "ame.share"; "exp.share"; "gc.share"; "trace.unattributed" ]
        then acc +. m.value
        else acc)
      0.0 metrics
  in
  let ledger_ok = Float.abs (total -. 1.0) <= 0.02 in
  Trace.write tr ~path:spans_path ~workload:w.Workload.name ~seed;
  { correct = tl.failed = 0 && ledger_ok;
    attempted = tl.attempted;
    failed = tl.failed;
    metrics;
    notes =
      [ Printf.sprintf "%s seed=%d: untraced %.4f s, traced %.4f s, layer total %.4f, %d GC events lost"
          w.Workload.name seed base_s traced_s total tr.Trace.lost_events;
        Printf.sprintf "spans written to %s" spans_path ]
      @ (if ledger_ok then [] else [ "layer shares do not add up to the traced wall" ])
      @ tl.violations }
