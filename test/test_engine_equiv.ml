(* Sparse-vs-reference engine equivalence.

   The sparse event-driven core (Engine.run_nodes) must be observationally
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
      (* Series lengths 0..6 cover the wait-only series, the one-round
         case, and multi-round runs, after 0..3 idle rounds, parked by the
         sparse core and heard round by round by the reference.  The hops
         come from the node's own stream, so every later step checks that
         the series left it as [len] draws would; the read stops at a
         random hop. *)
      let wait = Prng.Rng.int rng 4 in
      let len = Prng.Rng.int rng 7 in
      let bound = 1 + Prng.Rng.int rng channels in
      let stop = Prng.Rng.int rng 8 in
      let v = Engine.listen_random ~rng ~bound ~wait ~len in
      for j = 0 to min stop len - 1 do
        ignore (Engine.heard v j)
      done
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
  let body = node_body ~n:p.n ~channels:p.channels ~steps:p.steps in
  match core with
  | `Reference -> Reference_engine.run cfg ~adversary body
  | `Sparse -> Engine.run_nodes cfg ~adversary body

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
  let body (ctx : Engine.ctx) = Engine.idle_for (5000 + (100 * (ctx.Engine.id mod 7))) in
  let a = Reference_engine.run cfg ~adversary:Adversary.null body in
  let b = Engine.run_nodes cfg ~adversary:Adversary.null body in
  check Alcotest.bool "identical" true (same_result a b);
  check Alcotest.int "rounds" 5600 a.Engine.rounds_used;
  check Alcotest.bool "completed" true a.Engine.completed

let abort_with_parked_fibers () =
  (* max_rounds expires while fibers sleep in the wake queue: both cores
     must abort at the same round with the same stats. *)
  let cfg = Config.make ~n:6 ~channels:2 ~t:1 ~seed:9L ~max_rounds:100 () in
  let body _ = Engine.idle_for 10_000 in
  let a = Reference_engine.run cfg ~adversary:Adversary.null body in
  let b = Engine.run_nodes cfg ~adversary:Adversary.null body in
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
  let a = Reference_engine.run cfg ~adversary:(mk ()) body in
  let b = Engine.run_nodes cfg ~adversary:(mk ()) body in
  check Alcotest.bool "identical" true (same_result a b);
  check Alcotest.bool "has transcript" true (a.Engine.transcript <> [])

(* Node i parks from the resume pass of round [wake_passes.(i) - 1] (0: at
   fiber start) until the end of [wake_round]; node 6 transmits every round
   and stays on the active list.  The wake bucket is then filled by five
   passes, {10, 11}, {2, 5, 9}, {3, 7}, {1, 4, 8} and {0}: a pass whose ids
   are all above the rest, interleaved passes, and a last one-id run below
   every other id, five ascending runs for the engine to merge.  Nodes 4
   and 7 park as listen-series, the others by [idle_for]. *)
let wake_round = 9

let wake_passes = [| 4; 3; 1; 2; 3; 1; -1; 2; 3; 1; 0; 0 |]

let wake_merge_body log (ctx : Engine.ctx) =
  let id = ctx.Engine.id in
  let note () = log := (Engine.current_round (), id) :: !log in
  let k = wake_passes.(id) in
  if k < 0 then
    for r = 0 to wake_round + 1 do
      Engine.transmit ~chan:(r mod 2) (Frame.Plain { src = id; dst = -1; body = "t" });
      note ()
    done
  else begin
    for _ = 1 to k do
      Engine.idle ()
    done;
    let span = wake_round - k + 1 in
    if id = 4 || id = 7 then
      ignore (Engine.listen_random ~rng:ctx.Engine.rng ~bound:2 ~wait:(span - 5) ~len:5)
    else Engine.idle_for span;
    note ();
    ignore (Engine.listen ~chan:0);
    note ()
  end

let wake_bucket_merged () =
  (* A wake bucket filled across resume passes resumes in ascending id
     order, merged with the active list, exactly as the reference core
     steps it; with recording off and on. *)
  let n = Array.length wake_passes in
  List.iter
    (fun record ->
      let cfg = Config.make ~n ~channels:2 ~t:0 ~seed:11L ~record_transcript:record () in
      let go run =
        let log = ref [] in
        let before = Radio.Counters.snapshot () in
        let r = run cfg ~adversary:Adversary.null (wake_merge_body log) in
        (r, List.rev !log, Radio.Counters.diff (Radio.Counters.snapshot ()) before)
      in
      let label = Printf.sprintf "record %b: " record in
      let ra, la, _ = go Reference_engine.run in
      let rb, lb, counted = go Engine.run_nodes in
      check Alcotest.bool (label ^ "engine observables identical") true (same_result ra rb);
      check Alcotest.(list (pair int int)) (label ^ "resume order = reference") la lb;
      check
        Alcotest.(list int)
        (label ^ "the bucket resumes ascending")
        (List.init n Fun.id)
        (List.filter_map (fun (r, i) -> if r = wake_round + 1 then Some i else None) lb);
      check Alcotest.int (label ^ "runs merged") 5 counted.Radio.Counters.wake_runs)
    [ false; true ]

(* -- listen_random: parked vs reference ------------------------------------

   The random property above only compares engine-side observables; these
   check what the listeners actually read, through both cores, with
   recording off, with it on and with an observing adversary (the sparse
   core parks every series and names its listeners from the hop store;
   the reference listens round by round), with mixed series lengths chosen
   to force the round rings and the hop store to regrow while series are
   outstanding. *)

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

(* What one listener saw: every hop it read as (series, hop, heard), and
   per series how many hops it read, the round the series returned in and
   the node's next 64 bits — the stream after the series. *)
type listener_log = {
  mutable calls : (int * int * Frame.t option) list;
  mutable finals : (int * int * int64) list;
}

let random_series_run p ~record ~observer run_core =
  let n = p.senders + p.listeners in
  let logs = Array.init n (fun _ -> { calls = []; finals = [] }) in
  let seen = ref [] in
  let cfg =
    Config.make ~n ~channels:p.schannels ~t:p.st ~seed:(Int64.of_int p.sseed)
      ~record_transcript:record ()
  in
  let adversary =
    let a = make_adversary ~which:p.adv ~channels:p.schannels ~budget:p.st ~seed:p.sseed () in
    assert (Option.is_none a.Adversary.observe);
    if observer then
      { a with
        Adversary.observe = Some (fun r -> seen := r.Transcript.listeners :: !seen) }
    else a
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
           declared while short ones are parked, each after 0..3 rounds
           of its own wait (a wait-only series included). *)
        let wait = Prng.Rng.int rng 4 in
        let len = if Prng.Rng.int rng 3 = 0 then Prng.Rng.int rng 41 else Prng.Rng.int rng 6 in
        let bound = 1 + Prng.Rng.int rng p.schannels in
        (* Read hops 0..stop: [stop] >= len - 1 reads every hop. *)
        let stop = Prng.Rng.int rng (len + 2) in
        let v = Engine.listen_random ~rng ~bound ~wait ~len in
        let got = min (stop + 1) len in
        for j = 0 to got - 1 do
          log.calls <- (series, j, Engine.heard v j) :: log.calls
        done;
        log.finals <- (got, Engine.current_round (), Prng.Rng.bits64 rng) :: log.finals
      done
  in
  let r = run_core cfg ~adversary body in
  (r, Array.map (fun l -> (l.calls, l.finals)) logs, !seen)

let series_paths_agree =
  QCheck.Test.make ~name:"parked = reference" ~count:200 series_params_arb (fun p ->
      let fail what a b =
        QCheck.Test.fail_reportf "%s on %s:@ %t" what (pp_series_params p) (fun fmt ->
            explain_mismatch fmt a b)
      in
      let runs =
        List.map
          (fun (label, record, observer) ->
            let reference, ref_log, ref_seen =
              random_series_run p ~record ~observer Reference_engine.run
            in
            let parked, log, seen = random_series_run p ~record ~observer Engine.run_nodes in
            if not (same_result reference parked) then
              fail (label ^ ": parked vs reference") reference parked;
            if seen <> ref_seen then
              QCheck.Test.fail_reportf "%s: observed listeners differ on %s" label
                (pp_series_params p);
            (reference, ref_log, log))
          [ ("recording off", false, false);
            ("recording on", true, false);
            ("observer", false, true) ]
      in
      let off, _, off_log = List.hd runs in
      List.iter
        (fun (r, _, _) ->
          if r.Engine.stats <> off.Engine.stats then fail "recording changed the stats" off r)
        runs;
      List.for_all (fun (_, ref_log, log) -> log = ref_log && log = off_log) runs)

let series_lengths = [| 3; 1; 40; 0; 7; 33 |]

(* Spans of at most 12 rounds (wait + len) keep the round rings at 12 to
   16 rows, so most of these series wrap the ring mid-series. *)
let wrapping_series_lengths = [| 5; 9; 2; 9; 0; 9; 7; 9; 8; 9 |]

let series_workload ?(lengths = series_lengths) ~n ~channels ~record ~seed run_core =
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
    else
      (* Staggered starts so outstanding series overlap at varying offsets:
         each series first waits 0..3 rounds, drawn from the node's stream
         (a wait before the 0-hop series is a plain idle span). *)
      let rng = ctx.Engine.rng in
      Array.iter
        (fun len ->
          let wait = Prng.Rng.int rng 4 in
          let v = Engine.listen_random ~rng ~bound:channels ~wait ~len in
          for j = 0 to len - 1 do
            let s =
              match Engine.heard v j with
              | Some (Frame.Plain { src; body; _ }) -> Printf.sprintf "%d@%d:%s" j src body
              | Some _ -> "?"
              | None -> Printf.sprintf "%d@-" j
            in
            heard.(id) <- s :: heard.(id)
          done)
        lengths
  in
  let r = run_core cfg body in
  (r, heard)

(* The series workload through both cores: parked (recording off), with
   recording on, and under an observing adversary; returns what the parked
   listeners heard. *)
let series_parity ?lengths ~channels () =
  let n = 12 and seed = 5L in
  let go ~record ?(adversary = Adversary.null) run =
    series_workload ?lengths ~n ~channels ~record ~seed (fun cfg body ->
        run cfg ~adversary body)
  in
  let check_bool what = check Alcotest.bool (Printf.sprintf "C = %d, %s" channels what) true in
  (* Parked fast path (record off, non-observing adversary) vs reference. *)
  let ra, ha = go ~record:false Reference_engine.run in
  let rb, hb = go ~record:false Engine.run_nodes in
  check_bool "parked: engine observables identical" (same_result ra rb);
  check_bool "parked: heard frames identical" (ha = hb);
  (* Parked series, recording on: must hear exactly the same frames. *)
  let rc, hc = go ~record:true Reference_engine.run in
  let rd, hd = go ~record:true Engine.run_nodes in
  check_bool "recorded: engine observables identical" (same_result rc rd);
  check_bool "recorded: heard frames identical" (hc = hd);
  check_bool "recorded path hears what the parked path hears" (hb = hd);
  (* Parked series, recording off but an observing adversary.  It never
     strikes, so the heard frames must match the unobserved run; it keeps
     the per-round listener identities, which both cores must show it
     alike. *)
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
  let rf, hf, sf = observed Engine.run_nodes in
  check_bool "observed: engine observables identical" (same_result re rf);
  check_bool "observed: listeners seen identical" (se = sf);
  check_bool "observed: heard frames identical" (he = hf);
  check_bool "observed path matches the parked path" (same_result rb rf && hb = hf);
  hb

let series_heard_parity () =
  let heard = series_parity ~channels:3 () in
  check Alcotest.bool "listeners heard something" true
    (Array.exists (List.exists (fun s -> not (String.ends_with ~suffix:"@-" s))) heard)

let series_wide_cells () =
  (* The hop store's 2-byte cells (C = 300) and 4-byte cells (C = 70,000):
     a hop past 255, or past 65,535, read back from a narrower cell names
     the wrong listener channel in the recorded runs and the observer's
     view, and series that wrap the ring mid-series book their later hops
     in its first rows. *)
  List.iter
    (fun channels -> ignore (series_parity ~lengths:wrapping_series_lengths ~channels ()))
    [ 300; 70_000 ]

let series_rejects_bad_arguments () =
  (* A bound outside 1..C raises when the series is declared, on both
     cores and with recording on or off, before the core draws a hop:
     node 0's stream is left untouched. *)
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
                (run cfg ~adversary:Adversary.null (fun (ctx : Engine.ctx) ->
                     if ctx.Engine.id = 0 then begin
                       rng := Some ctx.Engine.rng;
                       ignore
                         (Engine.listen_random ~rng:ctx.Engine.rng ~bound ~wait:2 ~len:4)
                     end)));
          let fresh = Prng.Rng.split_at (Prng.Rng.create 3L) 1 in
          match !rng with
          | None -> Alcotest.fail "node 0 never ran"
          | Some rng ->
            check Alcotest.int64
              (Printf.sprintf "%s: bound %d draws nothing" label bound)
              (Prng.Rng.bits64 fresh) (Prng.Rng.bits64 rng))
        [ 0; 3 ])
    [ ("parked", false, Engine.run_nodes);
      ("parked, recording", true, Engine.run_nodes);
      ("reference", false, Reference_engine.run) ]

let series_stale_read_raises () =
  (* [Engine.heard] reads the series' view in place, so a round action
     after the series invalidates the view: the next read raises, on both
     cores and whether or not the run records.  [current_round] is not a
     round action, and a hop outside the series raises too. *)
  List.iter
    (fun (label, record, run_core) ->
      let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~seed:3L ~record_transcript:record () in
      let run read =
        run_core cfg ~adversary:Adversary.null (fun (ctx : Engine.ctx) ->
            if ctx.Engine.id = 0 then
              read (Engine.listen_random ~rng:ctx.Engine.rng ~bound:2 ~wait:1 ~len:3)
            else
              for _ = 1 to 6 do
                Engine.transmit ~chan:0 (Frame.Plain { src = 1; dst = 0; body = "s" })
              done)
      in
      Alcotest.check_raises (label ^ ": round action, then a read")
        (Invalid_argument "Engine.heard: series read after a round action") (fun () ->
          ignore
            (run (fun v ->
                 ignore (Engine.heard v 0);
                 Engine.idle ();
                 ignore (Engine.heard v 1))));
      Alcotest.check_raises (label ^ ": hop outside the series")
        (Invalid_argument "Engine.heard: hop outside the series") (fun () ->
          ignore (run (fun v -> ignore (Engine.heard v 3))));
      let rounds = ref [] in
      let r =
        run (fun v ->
            for j = 0 to 2 do
              ignore (Engine.heard v j);
              rounds := Engine.current_round () :: !rounds
            done;
            Engine.idle ())
      in
      check Alcotest.(list int) (label ^ ": current_round reads the resume round") [ 4; 4; 4 ]
        !rounds;
      check Alcotest.bool (label ^ ": completed") true r.Engine.completed)
    [ ("parked", false, Engine.run_nodes);
      ("parked, recording", true, Engine.run_nodes);
      ("reference", false, Reference_engine.run);
      ("reference, recording", true, Reference_engine.run) ]

let series_wait_only_is_idle_for () =
  (* [wait > 0] with [len = 0] is [idle_for wait]: same rounds, same
     engine observables, no draw from the stream and a view without hops.
     With hops, a series' [wait] is an [idle_for] before a series without
     one.  Checked on both cores, with recording off and on: every node
     ends by sending its next stream draw, so a stray draw shows. *)
  let channels = 3 and n = 8 in
  let body ~folded (ctx : Engine.ctx) =
    let id = ctx.Engine.id and rng = ctx.Engine.rng in
    if id < 2 then
      for k = 1 to 30 do
        Engine.transmit ~chan:((id + k) mod channels)
          (Frame.Plain { src = id; dst = -1; body = Printf.sprintf "%d.%d" id k })
      done
    else begin
      let wait = id - 1 and len = if id land 1 = 0 then 0 else 5 in
      let v =
        if folded then Engine.listen_random ~rng ~bound:channels ~wait ~len
        else begin
          Engine.idle_for wait;
          Engine.listen_random ~rng ~bound:channels ~wait:0 ~len
        end
      in
      if len = 0 then
        Alcotest.check_raises "no hops"
          (Invalid_argument "Engine.heard: hop outside the series")
          (fun () -> ignore (Engine.heard v 0));
      let heard = List.init len (Engine.heard v) in
      let body =
        Printf.sprintf "%Ld/%d" (Prng.Rng.bits64 rng)
          (List.length (List.filter Option.is_some heard))
      in
      Engine.transmit ~chan:(id mod channels) (Frame.Plain { src = id; dst = -1; body })
    end
  in
  List.iter
    (fun record ->
      let cfg = Config.make ~n ~channels ~t:1 ~seed:4L ~record_transcript:record () in
      let runs =
        List.concat_map
          (fun (core, run) ->
            List.map
              (fun folded ->
                ( Printf.sprintf "%s, record %b, folded %b" core record folded,
                  run cfg ~adversary:Adversary.null (body ~folded) ))
              [ true; false ])
          [ ("parked", Engine.run_nodes); ("reference", Reference_engine.run) ]
      in
      let _, first = List.hd runs in
      List.iter
        (fun (label, r) ->
          check Alcotest.bool (label ^ ": identical") true (same_result first r))
        runs)
    [ false; true ]

let series_completion_allocation () =
  (* A parked series costs the same constant number of words whatever its
     length: the engine books each hop into its ring and hop store as it
     draws it, the fiber is resumed once with a view of them and of the
     ring, and reading every hop back through the view copies and boxes
     nothing. *)
  let words ~len =
    let cfg = Config.make ~n:2 ~channels:2 ~t:0 ~seed:3L () in
    let per_series = ref 0.0 in
    let series rng =
      let v = Engine.listen_random ~rng ~bound:2 ~wait:1 ~len in
      for j = 0 to len - 1 do
        ignore (Engine.heard v j)
      done
    in
    let _ =
      Engine.run_nodes cfg ~adversary:Adversary.null (fun (ctx : Engine.ctx) ->
          let rng = ctx.Engine.rng in
          if ctx.Engine.id = 0 then begin
            series rng;
            let runs = 50 in
            let before = Gc.minor_words () in
            for _ = 1 to runs do
              series rng
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
          Alcotest.test_case "wake bucket merged across passes" `Quick wake_bucket_merged;
          Alcotest.test_case "channel usage totals = stats" `Quick
            channel_usage_totals_match_stats ] );
      ( "listen-series",
        [ qcheck series_paths_agree;
          Alcotest.test_case "heard parity across cores and paths" `Quick series_heard_parity;
          Alcotest.test_case "wide hop cells, wrapping series" `Quick series_wide_cells;
          Alcotest.test_case "argument validation" `Quick series_rejects_bad_arguments;
          Alcotest.test_case "stale read raises" `Quick series_stale_read_raises;
          Alcotest.test_case "wait-only series = idle_for" `Quick series_wait_only_is_idle_for;
          Alcotest.test_case "completion allocation constant" `Quick
            series_completion_allocation ] );
      ( "adversary-validate",
        [ Alcotest.test_case "empty strikes allocation-free" `Quick validate_empty_no_alloc;
          Alcotest.test_case "nonempty strikes still validated" `Quick
            validate_nonempty_still_checks ] ) ]
