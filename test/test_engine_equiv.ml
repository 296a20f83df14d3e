(* Sparse-vs-reference engine equivalence.

   The sparse event-driven core (Engine.run) must be observationally
   identical to the plain dense loop in the test oracle library
   (Reference_engine.run): same stats, same transcript records, same
   channel usage, same round counts, same completion flag, for every
   workload and adversary. *)

module Config = Radio.Config
module Frame = Radio.Frame
module Engine = Radio.Engine
module Adversary = Radio.Adversary
module Transcript = Radio.Transcript

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* -- result comparison ----------------------------------------------------

   [Engine.result] is ints, bools, lists, arrays, and immutable frames all
   the way down, so structural equality is exact.  Mismatches are reported
   field by field for debuggability. *)

let stats_tuple (s : Transcript.Stats.t) =
  ( s.Transcript.Stats.rounds,
    s.Transcript.Stats.honest_transmissions,
    s.Transcript.Stats.deliveries,
    s.Transcript.Stats.spoofed_deliveries,
    s.Transcript.Stats.collisions,
    s.Transcript.Stats.jammed_rounds,
    s.Transcript.Stats.strikes,
    s.Transcript.Stats.max_payload )

let explain_mismatch fmt (a : Engine.result) (b : Engine.result) =
  if stats_tuple a.Engine.stats <> stats_tuple b.Engine.stats then
    Format.fprintf fmt "stats differ: {%a} vs {%a};@ " Transcript.Stats.pp a.Engine.stats
      Transcript.Stats.pp b.Engine.stats;
  if a.Engine.rounds_used <> b.Engine.rounds_used then
    Format.fprintf fmt "rounds_used %d vs %d;@ " a.Engine.rounds_used b.Engine.rounds_used;
  if a.Engine.completed <> b.Engine.completed then
    Format.fprintf fmt "completed %b vs %b;@ " a.Engine.completed b.Engine.completed;
  if a.Engine.transcript <> b.Engine.transcript then
    Format.fprintf fmt "transcripts differ (lengths %d vs %d)"
      (List.length a.Engine.transcript)
      (List.length b.Engine.transcript)

let same_result a b =
  a.Engine.stats = b.Engine.stats
  && a.Engine.rounds_used = b.Engine.rounds_used
  && a.Engine.completed = b.Engine.completed
  && a.Engine.transcript = b.Engine.transcript
  && a.Engine.channel_usage = b.Engine.channel_usage

(* -- workload generation --------------------------------------------------

   Node behaviour is driven entirely by [ctx.rng]: both cores hand node i
   the same split stream, so the scripts are identical run to run without
   shipping a script data structure across. *)

let node_body ~n ~channels ~steps (ctx : Engine.ctx) =
  let rng = ctx.Engine.rng in
  let id = ctx.Engine.id in
  for _ = 1 to steps do
    match Prng.Rng.int rng 7 with
    | 0 | 1 ->
      let chan = Prng.Rng.int rng channels in
      let body = String.make (Prng.Rng.int rng 5) 'x' in
      Engine.transmit ~chan (Frame.Plain { src = id; dst = (id + 1) mod n; body })
    | 2 | 3 -> ignore (Engine.listen ~chan:(Prng.Rng.int rng channels))
    | 4 -> Engine.idle ()
    | 5 ->
      (* Series lengths 0..6 cover the empty no-op, the one-round case, and
         multi-round runs; with record off and a non-observing adversary
         this is the parked fast path, otherwise the engine declines the
         series and the fiber listens round by round.  The hops come from
         the node's own stream, so every later step checks that the series
         left it as [len] draws would; [f] stops at a random hop. *)
      let len = Prng.Rng.int rng 7 in
      let bound = 1 + Prng.Rng.int rng channels in
      let stop = Prng.Rng.int rng 8 in
      ignore (Engine.listen_random ~rng ~bound ~len ~f:(fun j _ -> j < stop))
    | _ -> Engine.idle_for (1 + Prng.Rng.int rng 5)
  done

(* Fresh adversary per engine run: the stateful strategies (jammer RNGs,
   reactive traffic memory, energy budget) must start from the same state
   on both sides. *)
let make_adversary ~which ~channels ~budget ~seed () =
  let rng () = Prng.Rng.create (Int64.of_int ((seed * 7919) + 13)) in
  match which mod 6 with
  | 0 -> Adversary.null
  | 1 -> Adversary.sweep_jammer ~channels ~budget
  | 2 -> Adversary.random_jammer (rng ()) ~channels ~budget
  | 3 ->
    Adversary.spoofer (rng ()) ~channels ~budget ~forge:(fun ~round chan ->
        Frame.Plain { src = 0; dst = chan; body = Printf.sprintf "spoof-%d-%d" round chan })
  | 4 -> Adversary.reactive_jammer (rng ()) ~channels ~budget
  | _ ->
    Adversary.energy_bounded ~total:(budget * 5) (Adversary.sweep_jammer ~channels ~budget)

type params = {
  n : int;
  channels : int;
  t : int;
  seed : int;
  steps : int;
  record : bool;
  which : int;  (** adversary choice *)
  abort : bool;  (** run with a tiny [max_rounds] to exercise the abort path *)
}

let pp_params p =
  Printf.sprintf "n=%d C=%d t=%d seed=%d steps=%d record=%b adv=%d abort=%b" p.n p.channels
    p.t p.seed p.steps p.record p.which p.abort

let params_gen =
  QCheck.Gen.(
    let* n = int_range 2 40 in
    let* channels = int_range 2 6 in
    let* t = int_range 0 (channels - 1) in
    let* seed = int_range 1 1_000_000 in
    let* steps = int_range 0 25 in
    let* record = bool in
    let* which = int_range 0 5 in
    let* abort = bool in
    return { n; channels; t; seed; steps; record; which; abort })

let params_arb = QCheck.make ~print:pp_params params_gen

let config_of p =
  let max_rounds = if p.abort then 4 else 2_000_000 in
  Config.make ~n:p.n ~channels:p.channels ~t:p.t ~seed:(Int64.of_int p.seed) ~max_rounds
    ~record_transcript:p.record ()

let run_with core p =
  let cfg = config_of p in
  let adversary =
    make_adversary ~which:p.which ~channels:p.channels ~budget:p.t ~seed:p.seed ()
  in
  let nodes = Array.init p.n (fun _ -> node_body ~n:p.n ~channels:p.channels ~steps:p.steps) in
  match core with
  | `Reference -> Reference_engine.run cfg ~adversary nodes
  | `Sparse -> Engine.run cfg ~adversary nodes

let fail_unequal p a b =
  QCheck.Test.fail_reportf "divergence on %s:@ %t" (pp_params p) (fun fmt ->
      explain_mismatch fmt a b)

(* -- property: sparse = reference on random workloads -- *)

let sparse_equals_reference =
  QCheck.Test.make ~name:"sparse core = reference core" ~count:300 params_arb (fun p ->
      let a = run_with `Reference p in
      let b = run_with `Sparse p in
      if not (same_result a b) then fail_unequal p a b else true)

(* -- deterministic spot checks -- *)

let base_params =
  { n = 24; channels = 4; t = 2; seed = 7; steps = 18; record = true; which = 3;
    abort = false }

let idle_parking_parity () =
  (* Pure idle_for spans: the sparse core fast-forwards over parked rounds
     (no record, null adversary), the reference core grinds through each —
     results must still be identical. *)
  let p = { base_params with record = false; which = 0; steps = 0 } in
  let cfg = config_of p in
  let nodes =
    Array.init p.n (fun _ (ctx : Engine.ctx) ->
        Engine.idle_for (5000 + (100 * (ctx.Engine.id mod 7))))
  in
  let a = Reference_engine.run cfg ~adversary:Adversary.null nodes in
  let b = Engine.run cfg ~adversary:Adversary.null nodes in
  check Alcotest.bool "identical" true (same_result a b);
  check Alcotest.int "rounds" 5600 a.Engine.rounds_used;
  check Alcotest.bool "completed" true a.Engine.completed

let abort_with_parked_fibers () =
  (* max_rounds expires while fibers sleep in the wake queue: both cores
     must abort at the same round with the same stats. *)
  let cfg = Config.make ~n:6 ~channels:2 ~t:1 ~seed:9L ~max_rounds:100 () in
  let nodes = Array.init 6 (fun _ (_ : Engine.ctx) -> Engine.idle_for 10_000) in
  let a = Reference_engine.run cfg ~adversary:Adversary.null nodes in
  let b = Engine.run cfg ~adversary:Adversary.null nodes in
  check Alcotest.bool "identical" true (same_result a b);
  check Alcotest.bool "aborted" false a.Engine.completed;
  check Alcotest.int "rounds" 100 a.Engine.rounds_used

let staggered_wakes_parity () =
  (* Wake rounds interleave with active transmitters; recording on, so the
     sparse core takes the record path with real transcripts to compare. *)
  let p = { base_params with which = 4 } in
  let cfg = config_of p in
  let body (ctx : Engine.ctx) =
    let id = ctx.Engine.id in
    for k = 1 to 8 do
      Engine.idle_for ((id mod 5) + 1);
      if id land 1 = 0 then
        Engine.transmit ~chan:(k mod p.channels)
          (Frame.Plain { src = id; dst = (id + 1) mod p.n; body = "w" })
      else ignore (Engine.listen ~chan:(k mod p.channels))
    done
  in
  let mk () = make_adversary ~which:p.which ~channels:p.channels ~budget:p.t ~seed:p.seed () in
  let a = Reference_engine.run cfg ~adversary:(mk ()) (Array.make p.n body) in
  let b = Engine.run_nodes cfg ~adversary:(mk ()) body in
  check Alcotest.bool "identical" true (same_result a b);
  check Alcotest.bool "has transcript" true (a.Engine.transcript <> [])

let run_nodes_equals_run () =
  let p = { base_params with record = true } in
  let cfg = config_of p in
  let body = node_body ~n:p.n ~channels:p.channels ~steps:p.steps in
  let mk () = make_adversary ~which:p.which ~channels:p.channels ~budget:p.t ~seed:p.seed () in
  let a = Engine.run cfg ~adversary:(mk ()) (Array.init p.n (fun _ -> body)) in
  let b = Engine.run_nodes cfg ~adversary:(mk ()) body in
  check Alcotest.bool "identical" true (same_result a b)

(* -- listen_random: parked vs declined vs reference ---------------------

   The random property above only compares engine-side observables; these
   check what the listeners actually read, through both cores and both
   series paths (parked when nothing records; declined, i.e. plain
   per-round listens, when the transcript or an observing adversary needs
   identities), with mixed series lengths chosen to force the round rings
   and the hop store to regrow while series are outstanding. *)

type series_params = {
  listeners : int;
  senders : int;
  schannels : int;
  st : int;
  sseed : int;
  adv : int;  (** a non-observing adversary: null, sweep, random jam, spoofer *)
}

let pp_series_params p =
  Printf.sprintf "listeners=%d senders=%d C=%d t=%d seed=%d adv=%d" p.listeners p.senders
    p.schannels p.st p.sseed p.adv

let series_params_arb =
  QCheck.make ~print:pp_series_params
    QCheck.Gen.(
      let* listeners = int_range 2 12 in
      let* senders = int_range 0 4 in
      let* schannels = int_range 2 5 in
      let* st = int_range 0 (schannels - 1) in
      let* sseed = int_range 1 1_000_000 in
      let* adv = int_range 0 3 in
      return { listeners; senders; schannels; st; sseed; adv })

(* What one listener saw: every [f] call as (series, hop, heard), and per
   series whether [f] stopped it, how many calls it got, the round the
   call returned in and the node's next 64 bits — the stream after the
   series. *)
type listener_log = {
  mutable calls : (int * int * Frame.t option) list;
  mutable finals : (bool * int * int * int64) list;
}

let random_series_run p ~record ~observer run_core =
  let n = p.senders + p.listeners in
  let logs = Array.init n (fun _ -> { calls = []; finals = [] }) in
  let cfg =
    Config.make ~n ~channels:p.schannels ~t:p.st ~seed:(Int64.of_int p.sseed)
      ~record_transcript:record ()
  in
  let adversary =
    let a = make_adversary ~which:p.adv ~channels:p.schannels ~budget:p.st ~seed:p.sseed () in
    assert (Option.is_none a.Adversary.observe);
    if observer then { a with Adversary.observe = Some ignore } else a
  in
  let body (ctx : Engine.ctx) =
    let rng = ctx.Engine.rng and id = ctx.Engine.id in
    if id < p.senders then
      for k = 1 to 60 do
        if Prng.Rng.int rng 3 = 0 then Engine.idle ()
        else
          Engine.transmit ~chan:(Prng.Rng.int rng p.schannels)
            (Frame.Plain { src = id; dst = -1; body = Printf.sprintf "%d.%d" id k })
      done
    else
      let log = logs.(id) in
      for series = 0 to 3 do
        Engine.idle_for (Prng.Rng.int rng 4);
        (* Mostly short series with the odd long one, so a long series is
           declared while short ones are parked. *)
        let len = if Prng.Rng.int rng 3 = 0 then Prng.Rng.int rng 41 else Prng.Rng.int rng 6 in
        let bound = 1 + Prng.Rng.int rng p.schannels in
        (* [stop] = len or len + 1 reads every hop. *)
        let stop = Prng.Rng.int rng (len + 2) in
        let got = ref 0 in
        let stopped =
          Engine.listen_random ~rng ~bound ~len ~f:(fun j heard ->
              incr got;
              log.calls <- (series, j, heard) :: log.calls;
              j <> stop)
        in
        if stopped <> (stop < len) || !got <> min (stop + 1) len then
          failwith
            (Printf.sprintf "node %d series %d: len %d stop %d, stopped %b after %d calls" id
               series len stop stopped !got);
        log.finals <-
          (stopped, !got, Engine.current_round (), Prng.Rng.bits64 rng) :: log.finals
      done
  in
  let r = run_core cfg ~adversary (Array.make n body) in
  (r, Array.map (fun l -> (l.calls, l.finals)) logs)

let series_paths_agree =
  QCheck.Test.make ~name:"parked = declined = reference" ~count:200
    series_params_arb (fun p ->
      let go ~record ?(observer = false) run_core =
        random_series_run p ~record ~observer run_core
      in
      let ref_off, ref_off_log = go ~record:false Reference_engine.run in
      let parked, parked_log = go ~record:false Engine.run in
      let ref_on, ref_on_log = go ~record:true Reference_engine.run in
      let recorded, recorded_log = go ~record:true Engine.run in
      let observed, observed_log = go ~record:false ~observer:true Engine.run in
      let fail what a b =
        QCheck.Test.fail_reportf "%s on %s:@ %t" what (pp_series_params p) (fun fmt ->
            explain_mismatch fmt a b)
      in
      if not (same_result ref_off parked) then fail "parked vs reference" ref_off parked
      else if not (same_result ref_on recorded) then
        fail "declined (recording) vs reference" ref_on recorded
      else if not (same_result parked observed) then
        fail "parked vs declined (observer)" parked observed
      else if ref_off.Engine.stats <> ref_on.Engine.stats then
        fail "recording changed the stats" ref_off ref_on
      else
        parked_log = ref_off_log
        && recorded_log = ref_on_log
        && observed_log = parked_log
        && recorded_log = parked_log)

let series_lengths = [| 3; 1; 40; 0; 7; 33 |]

let series_workload ~n ~channels ~record ~seed run_core =
  let heard = Array.make n [] in
  let cfg =
    Config.make ~n ~channels ~t:0 ~seed ~record_transcript:record ()
  in
  let body (ctx : Engine.ctx) =
    let id = ctx.Engine.id in
    if id < n / 2 then
      for k = 1 to 96 do
        (* Two transmitters per round on distinct channels (clean
           deliveries), plus an occasional third that collides. *)
        if k mod (n / 2) = id then
          Engine.transmit ~chan:(k mod channels)
            (Frame.Plain
               { src = id; dst = (id + 1) mod n; body = Printf.sprintf "b%d.%d" id k })
        else if (k + 1) mod (n / 2) = id then
          Engine.transmit ~chan:((k + 1) mod channels)
            (Frame.Plain
               { src = id; dst = (id + 1) mod n; body = Printf.sprintf "c%d.%d" id k })
        else if (k + 2) mod (n / 2) = id && k land 3 = 0 then
          Engine.transmit ~chan:(k mod channels)
            (Frame.Plain { src = id; dst = (id + 1) mod n; body = "clash" })
        else Engine.idle ()
      done
    else begin
      (* Staggered starts so outstanding series overlap at varying offsets. *)
      Engine.idle_for (id mod 4);
      Array.iter
        (fun len ->
          ignore
            (Engine.listen_random ~rng:ctx.Engine.rng ~bound:channels ~len ~f:(fun j frame ->
                 let s =
                   match frame with
                   | Some (Frame.Plain { src; body; _ }) ->
                     Printf.sprintf "%d@%d:%s" j src body
                   | Some _ -> "?"
                   | None -> Printf.sprintf "%d@-" j
                 in
                 heard.(id) <- s :: heard.(id);
                 true)))
        series_lengths
    end
  in
  let r = run_core cfg (Array.init n (fun _ -> body)) in
  (r, heard)

let series_heard_parity () =
  let n = 12 and channels = 3 and seed = 5L in
  let go ~record ?(adversary = Adversary.null) run =
    series_workload ~n ~channels ~record ~seed (fun cfg nodes -> run cfg ~adversary nodes)
  in
  (* Parked fast path (record off, non-observing adversary) vs reference. *)
  let ra, ha = go ~record:false Reference_engine.run in
  let rb, hb = go ~record:false Engine.run in
  check Alcotest.bool "parked: engine observables identical" true (same_result ra rb);
  check Alcotest.bool "parked: heard frames identical" true (ha = hb);
  check Alcotest.bool "listeners heard something" true
    (Array.exists (List.exists (fun s -> not (String.ends_with ~suffix:"@-" s))) hb);
  (* Declined series, recording on: must hear exactly the same frames. *)
  let rc, hc = go ~record:true Reference_engine.run in
  let rd, hd = go ~record:true Engine.run in
  check Alcotest.bool "recorded: engine observables identical" true (same_result rc rd);
  check Alcotest.bool "recorded: heard frames identical" true (hc = hd);
  check Alcotest.bool "recorded path hears what the parked path hears" true (hb = hd);
  (* Declined series, recording off but an observing adversary.  It never
     strikes, so the heard frames must match the parked run; it keeps the
     per-round listener identities, which both cores must show it alike. *)
  let observed run =
    let seen = ref [] in
    let adversary =
      { Adversary.null with
        Adversary.name = "observer";
        observe = Some (fun record -> seen := record.Transcript.listeners :: !seen) }
    in
    let r, heard = go ~record:false ~adversary run in
    (r, heard, !seen)
  in
  let re, he, se = observed Reference_engine.run in
  let rf, hf, sf = observed Engine.run in
  check Alcotest.bool "observed: engine observables identical" true (same_result re rf);
  check Alcotest.bool "observed: listeners seen identical" true (se = sf);
  check Alcotest.bool "observed: heard frames identical" true (he = hf);
  check Alcotest.bool "observed path matches the parked path" true
    (same_result rb rf && hb = hf)

let series_rejects_bad_arguments () =
  (* A bound outside 1..C raises when the series is declared, on both
     cores and both paths, before the engine draws a hop: node 0's stream
     is left untouched. *)
  List.iter
    (fun (label, record, run) ->
      List.iter
        (fun bound ->
          let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~seed:3L ~record_transcript:record () in
          let rng = ref None in
          Alcotest.check_raises
            (Printf.sprintf "%s: bound %d" label bound)
            (Invalid_argument
               (Printf.sprintf "Engine.listen_random: bound %d outside 1..2" bound))
            (fun () ->
              ignore
                (run cfg ~adversary:Adversary.null
                   (Array.make 2 (fun (ctx : Engine.ctx) ->
                        if ctx.Engine.id = 0 then begin
                          rng := Some ctx.Engine.rng;
                          ignore
                            (Engine.listen_random ~rng:ctx.Engine.rng ~bound ~len:4
                               ~f:(fun _ _ -> true))
                        end))));
          let fresh = Prng.Rng.split_at (Prng.Rng.create 3L) 1 in
          match !rng with
          | None -> Alcotest.fail "node 0 never ran"
          | Some rng ->
            check Alcotest.int64
              (Printf.sprintf "%s: bound %d draws nothing" label bound)
              (Prng.Rng.bits64 fresh) (Prng.Rng.bits64 rng))
        [ 0; 3 ])
    [ ("parked", false, Engine.run);
      ("declined", true, Engine.run);
      ("reference", false, Reference_engine.run) ]

let series_stale_read_raises () =
  (* On the parked path [f] reads the history ring in place, so a round
     action inside [f] invalidates the rest of the series: the next read
     raises.  [current_round] is not a round action, and a round action in
     the last hop's [f] is followed by no read. *)
  let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~seed:3L () in
  let run f =
    Engine.run_nodes cfg ~adversary:Adversary.null (fun (ctx : Engine.ctx) ->
        if ctx.Engine.id = 0 then
          ignore (Engine.listen_random ~rng:ctx.Engine.rng ~bound:2 ~len:3 ~f)
        else
          for _ = 1 to 5 do
            Engine.transmit ~chan:0 (Frame.Plain { src = 1; dst = 0; body = "s" })
          done)
  in
  Alcotest.check_raises "round action, then a read"
    (Invalid_argument "Engine.listen_random: series read after a round action") (fun () ->
      ignore
        (run (fun j _ ->
             if j = 0 then Engine.idle ();
             true)));
  let rounds = ref [] in
  let r =
    run (fun j _ ->
        rounds := Engine.current_round () :: !rounds;
        if j = 2 then Engine.idle ();
        true)
  in
  check Alcotest.(list int) "current_round reads the resume round" [ 3; 3; 3 ] !rounds;
  check Alcotest.bool "completed" true r.Engine.completed

let series_completion_allocation () =
  (* A parked series costs the same constant number of words whatever its
     length: the engine draws the hops into its own scratch and store, the
     fiber is resumed once with a view of them and of the ring, and no
     per-hop result is copied or boxed. *)
  let words ~len =
    let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~seed:3L () in
    let f _ _ = true in
    let per_series = ref 0.0 in
    let _ =
      Engine.run_nodes cfg ~adversary:Adversary.null (fun (ctx : Engine.ctx) ->
          let rng = ctx.Engine.rng in
          if ctx.Engine.id = 0 then begin
            ignore (Engine.listen_random ~rng ~bound:2 ~len ~f);
            let runs = 50 in
            let before = Gc.minor_words () in
            for _ = 1 to runs do
              ignore (Engine.listen_random ~rng ~bound:2 ~len ~f)
            done;
            per_series := (Gc.minor_words () -. before) /. float_of_int runs
          end)
    in
    !per_series
  in
  let one = words ~len:1 and many = words ~len:200 in
  if Float.abs (one -. many) > 0.5 then
    Alcotest.failf "a series allocates %.1f words at 1 hop but %.1f at 200" one many;
  if many > 48.0 then Alcotest.failf "a parked series allocates %.1f words" many

let channel_usage_totals_match_stats () =
  (* The per-channel counters are a refinement of the global stats: summed
     over channels they must reproduce deliveries and collisions exactly,
     on both cores. *)
  let p = { base_params with which = 1 } in
  let check_core label run =
    let r = run p in
    let u = r.Engine.channel_usage in
    let sum = Array.fold_left ( + ) 0 in
    check Alcotest.int (label ^ " deliveries") r.Engine.stats.Transcript.Stats.deliveries
      (sum u.Transcript.Channel_usage.deliveries);
    check Alcotest.int (label ^ " collisions") r.Engine.stats.Transcript.Stats.collisions
      (sum u.Transcript.Channel_usage.collisions)
  in
  check_core "sparse" (run_with `Sparse);
  check_core "reference" (run_with `Reference)

(* -- Adversary.validate: the null path must never allocate -- *)

let validate_empty_no_alloc () =
  (* Warm up so any one-time setup is paid before measuring. *)
  ignore (Adversary.validate ~channels:4 ~budget:2 []);
  let iters = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Adversary.validate ~channels:4 ~budget:2 [])
  done;
  let after = Gc.minor_words () in
  (* The measurement itself boxes a float or two; anything growing with
     [iters] is a regression on the per-round null-adversary path. *)
  let per_call = (after -. before) /. float_of_int iters in
  if per_call > 0.01 then
    Alcotest.failf "Adversary.validate [] allocates %.3f words/call" per_call

let validate_nonempty_still_checks () =
  (* The early-out must not have disabled validation for real strikes. *)
  Alcotest.check_raises "invalid channel still rejected"
    (Invalid_argument "Adversary: strike on invalid channel") (fun () ->
      ignore
        (Adversary.validate ~channels:2 ~budget:2 [ { Adversary.chan = 5; spoof = None } ]))

let () =
  Alcotest.run "engine-equiv"
    [ ( "equivalence",
        [ qcheck sparse_equals_reference;
          Alcotest.test_case "idle parking parity" `Quick idle_parking_parity;
          Alcotest.test_case "abort with parked fibers" `Quick abort_with_parked_fibers;
          Alcotest.test_case "staggered wakes parity" `Quick staggered_wakes_parity;
          Alcotest.test_case "run_nodes = run" `Quick run_nodes_equals_run;
          Alcotest.test_case "channel usage totals = stats" `Quick
            channel_usage_totals_match_stats ] );
      ( "listen-series",
        [ qcheck series_paths_agree;
          Alcotest.test_case "heard parity across cores and paths" `Quick series_heard_parity;
          Alcotest.test_case "argument validation" `Quick series_rejects_bad_arguments;
          Alcotest.test_case "stale read raises" `Quick series_stale_read_raises;
          Alcotest.test_case "completion allocation constant" `Quick
            series_completion_allocation ] );
      ( "adversary-validate",
        [ Alcotest.test_case "empty strikes allocation-free" `Quick validate_empty_no_alloc;
          Alcotest.test_case "nonempty strikes still validated" `Quick
            validate_nonempty_still_checks ] ) ]
