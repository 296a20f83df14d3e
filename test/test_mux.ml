(* Tests for the multiplexed secure-channel service: replay windows, epoch
   re-keying, backpressure, crypto-mode equivalence (batched vs per-message
   byte identity), pool-size determinism, and both transports end-to-end. *)

module Mux = Secure_channel.Mux

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let key = Crypto.Sha256.digest "mux-test-group-key"

(* ------------------------------------------------------------------ *)
(* Window properties (against a naive reference model).                *)
(* ------------------------------------------------------------------ *)

(* Reference model: remember every delivered seq and the running maximum. *)
let window_matches_model =
  QCheck.Test.make ~name:"window matches naive model" ~count:300
    QCheck.(pair (int_range 1 62) (small_list (int_range 0 80)))
    (fun (width, seqs) ->
      let w = Mux.Window.create ~width in
      let delivered = Hashtbl.create 16 in
      let hi = ref (-1) in
      List.for_all
        (fun seq ->
          let expect =
            if !hi >= 0 && seq <= !hi && !hi - seq >= width then Mux.Window.Out_of_window
            else if Hashtbl.mem delivered seq then Mux.Window.Duplicate
            else Mux.Window.Fresh
          in
          let got = Mux.Window.check w seq in
          let ok =
            match (got, expect) with
            | Mux.Window.Fresh, Mux.Window.Fresh
            | Mux.Window.Duplicate, Mux.Window.Duplicate
            | Mux.Window.Out_of_window, Mux.Window.Out_of_window -> true
            | _ -> false
          in
          (match got with
          | Mux.Window.Fresh ->
            Mux.Window.note w seq;
            Hashtbl.replace delivered seq ();
            hi := max !hi seq
          | Mux.Window.Duplicate | Mux.Window.Out_of_window -> ());
          ok && Mux.Window.highest w = !hi)
        seqs)

let window_duplicate_after_note () =
  let w = Mux.Window.create ~width:8 in
  Mux.Window.note w 5;
  (match Mux.Window.check w 5 with
  | Mux.Window.Duplicate -> ()
  | _ -> Alcotest.fail "seq 5 should be a duplicate");
  (match Mux.Window.check w 6 with
  | Mux.Window.Fresh -> ()
  | _ -> Alcotest.fail "seq 6 should be fresh");
  Mux.Window.note w 20;
  (* 5 fell more than width-1 below the new top. *)
  match Mux.Window.check w 5 with
  | Mux.Window.Out_of_window -> ()
  | _ -> Alcotest.fail "seq 5 should now be out of window"

let window_rejects_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Mux.Window.create: width must be in 1..62")
    (fun () -> ignore (Mux.Window.create ~width:0));
  Alcotest.check_raises "width 63" (Invalid_argument "Mux.Window.create: width must be in 1..62")
    (fun () -> ignore (Mux.Window.create ~width:63))

(* ------------------------------------------------------------------ *)
(* Epoch verdict properties.                                           *)
(* ------------------------------------------------------------------ *)

let epoch_verdict_properties =
  QCheck.Test.make ~name:"epoch verdict: current always, previous in grace, rest stale"
    ~count:500
    QCheck.(
      quad (int_range 1 50) (int_range 0 50) (int_range 0 2000) (int_range (-2) 130))
    (fun (epoch_len, grace_raw, now, frame_epoch) ->
      let grace = min grace_raw epoch_len in
      let cur = now / epoch_len in
      let got = Mux.epoch_verdict ~epoch_len ~grace ~now ~frame_epoch in
      let expect =
        if frame_epoch = cur then Mux.Current
        else if frame_epoch = cur - 1 && now mod epoch_len < grace then Mux.Previous
        else Mux.Stale
      in
      match (got, expect) with
      | Mux.Current, Mux.Current | Mux.Previous, Mux.Previous | Mux.Stale, Mux.Stale ->
        true
      | _ -> false)

let epoch_boundary_cases () =
  (* epoch_len 10, grace 3: rounds 10,11,12 still accept epoch 0; 13 no. *)
  let v ~now ~fe = Mux.epoch_verdict ~epoch_len:10 ~grace:3 ~now ~frame_epoch:fe in
  (match v ~now:10 ~fe:0 with Mux.Previous -> () | _ -> Alcotest.fail "grace start");
  (match v ~now:12 ~fe:0 with Mux.Previous -> () | _ -> Alcotest.fail "grace end");
  (match v ~now:13 ~fe:0 with Mux.Stale -> () | _ -> Alcotest.fail "stale after grace");
  (match v ~now:12 ~fe:1 with Mux.Current -> () | _ -> Alcotest.fail "current epoch");
  (match v ~now:5 ~fe:1 with Mux.Stale -> () | _ -> Alcotest.fail "future epoch stale");
  match v ~now:25 ~fe:0 with Mux.Stale -> () | _ -> Alcotest.fail "two epochs back"

(* ------------------------------------------------------------------ *)
(* End-to-end runs.                                                    *)
(* ------------------------------------------------------------------ *)

let null = Radio.Adversary.null

let jammer seed budget = Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels:8 ~budget

let base_spec ?(transport = Mux.Acked) ?(rounds = 40) ?(logical = 24) ?(rate = 1)
    ?(queue_cap = 8) ?(outsiders = 0) () =
  Mux.make ~key ~logical ~phys:8 ~budget:2 ~transport ~rounds ~rate ~queue_cap
    ~epoch_len:8 ~grace:3 ~outsiders ~seed:11L ()

let acked_null_delivers () =
  let r = Mux.run (base_spec ()) ~adversary:null in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "delivers plenty" true (r.Mux.stats.Mux.delivered > 500);
  check Alcotest.int "no forged accepts" 0 r.Mux.stats.Mux.forged_accepts;
  check Alcotest.int "no leaks" 0 r.Mux.stats.Mux.plaintext_leaks;
  check Alcotest.bool "acks retire heads" true (r.Mux.stats.Mux.acked > 500);
  check Alcotest.bool "epochs rolled" true (r.Mux.stats.Mux.rekeys >= 4);
  (* Under the null adversary nothing is lost: every slot is collision-free
     by construction, so no retransmissions and no duplicates. *)
  check Alcotest.int "no retransmissions" 0 r.Mux.stats.Mux.retransmissions;
  check Alcotest.int "no duplicates" 0 r.Mux.stats.Mux.duplicates

let acked_jamming_retransmits () =
  let r = Mux.run (base_spec ~rounds:60 ()) ~adversary:(jammer 5L 2) in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "still delivers" true (r.Mux.stats.Mux.delivered > 200);
  check Alcotest.bool "jamming forces retransmissions" true
    (r.Mux.stats.Mux.retransmissions > 0);
  check Alcotest.int "authentication holds" 0 r.Mux.stats.Mux.forged_accepts;
  check Alcotest.int "secrecy holds" 0 r.Mux.stats.Mux.plaintext_leaks

let backpressure_sheds () =
  (* Offered load of 3/round into a queue of 2 under jamming must shed. *)
  let r = Mux.run (base_spec ~rounds:30 ~rate:3 ~queue_cap:2 ()) ~adversary:(jammer 7L 2) in
  check Alcotest.bool "sheds under overload" true (r.Mux.stats.Mux.shed > 0);
  check Alcotest.int "offered = rate * channels * rounds"
    (3 * 24 * 30) r.Mux.stats.Mux.offered

let outsiders_cannot_read_or_forge () =
  let r = Mux.run (base_spec ~rounds:40 ~outsiders:3 ()) ~adversary:null in
  check Alcotest.bool "outsiders overheard traffic" true (r.Mux.stats.Mux.snooped > 0);
  check Alcotest.int "secrecy: no outsider decryption" 0 r.Mux.stats.Mux.plaintext_leaks;
  check Alcotest.int "authenticity: no forged accepts" 0 r.Mux.stats.Mux.forged_accepts;
  (* Outsider injections that land on a listened slot die on the MAC. *)
  check Alcotest.bool "service still works" true (r.Mux.stats.Mux.delivered > 500)

(* [Mux.run] fans its per-frame crypto out over the enclosing scope's
   pool, so the reference is taken in a serial scope, where every chunk
   runs on the calling domain.  [adversary] builds a fresh (stateful)
   adversary per run. *)
let render_at ~jobs ~adversary spec =
  Parallel.run ~jobs (fun () -> Mux.render_stats (Mux.run spec ~adversary:(adversary ())))

let jobs_byte_identical ?(adversary = fun () -> jammer 9L 2) spec () =
  let serial = render_at ~jobs:1 ~adversary spec in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "render_stats identical at jobs=%d" jobs)
        serial (render_at ~jobs ~adversary spec))
    [ 2; 4 ]

(* Specs whose prepare batches are large enough to split into several
   chunks at jobs >= 2: 1024 channels over 16 physical ones, epoch_len 2
   and grace 1 so every other round opens frames under two epochs. *)
let wide_jammer seed () =
  Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels:16 ~budget:4

let wide_spec ?(transport = Mux.Acked) ?(ack_mode = Mux.Slotted) ?(logical = 1024)
    ?(outsiders = 0) ~rounds () =
  Mux.make ~key ~logical ~phys:16 ~budget:4 ~transport ~ack_mode ~rounds ~epoch_len:2
    ~grace:1 ~outsiders ~seed:21L ()

let wide_pig = wide_spec ~ack_mode:Mux.Piggybacked ~rounds:3 ()

(* Twenty repeats at jobs 2: chunk scheduling differs run to run, the
   output must not.  The jammer makes the heard sets uneven, so a chunk
   merged out of place cannot cancel out between send and receive. *)
let jobs_stress () =
  let adversary = wide_jammer 3L in
  let serial = render_at ~jobs:1 ~adversary wide_pig in
  for i = 1 to 20 do
    check Alcotest.string
      (Printf.sprintf "repeat %d at jobs=2" i)
      serial (render_at ~jobs:2 ~adversary wide_pig)
  done

let repeat_transport_full_delivery () =
  let spec =
    base_spec ~transport:(Mux.Repeat { reps = 12; group = 5 }) ~logical:2 ~rounds:25 ()
  in
  let r = Mux.run spec ~adversary:(jammer 13L 2) in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "heads retired" true (r.Mux.stats.Mux.messages_done > 0);
  check Alcotest.bool "most heads reach every receiver" true
    (r.Mux.stats.Mux.full_deliveries * 10 >= r.Mux.stats.Mux.messages_done * 8);
  check Alcotest.int "no forged accepts" 0 r.Mux.stats.Mux.forged_accepts

let latency_percentiles_sane () =
  let r = Mux.run (base_spec ~rounds:40 ()) ~adversary:null in
  let p50 = Mux.latency_percentile r 0.50 and p99 = Mux.latency_percentile r 0.99 in
  check Alcotest.bool "p50 <= p99" true (p50 <= p99);
  (* Null adversary: everything delivers the round it is sent. *)
  check Alcotest.int "null-adversary p99 latency" 0 p99

let spec_validation () =
  Alcotest.check_raises "budget >= phys"
    (Invalid_argument "Mux.make: need 0 <= budget < phys") (fun () ->
      ignore (Mux.make ~key ~logical:4 ~phys:4 ~budget:4 ~rounds:10 ()));
  Alcotest.check_raises "grace > epoch_len"
    (Invalid_argument "Mux.make: need 0 <= grace <= epoch_len") (fun () ->
      ignore (Mux.make ~key ~logical:4 ~phys:4 ~budget:1 ~rounds:10 ~epoch_len:4 ~grace:5 ()))

(* ------------------------------------------------------------------ *)
(* Piggybacked acks.                                                   *)
(* ------------------------------------------------------------------ *)

let pig_spec ?(ack_mode = Mux.Piggybacked) ?(rounds = 40) ?(logical = 24) ?(rate = 1)
    ?(queue_cap = 64) ?(outsiders = 0) () =
  Mux.make ~key ~logical ~phys:8 ~budget:2 ~transport:Mux.Acked ~ack_mode ~rounds
    ~rate ~queue_cap ~epoch_len:8 ~grace:3 ~outsiders ~seed:11L ()

(* Jams [budget] fixed channels during the first [real_rounds] engine rounds
   and then falls silent forever, so early losses are retransmitted out of
   the queue while the adversary is quiet and the run still drains. *)
let early_jammer ~real_rounds ~budget =
  { Radio.Adversary.name = "early-jammer";
    act =
      (fun ~round ->
        if round < real_rounds then
          List.init budget (fun i -> { Radio.Adversary.chan = i; spoof = None })
        else []);
    observe = (fun _ -> ());
    observes = false }

(* The parity set: every counter both ack modes must agree on for a fully
   drained run.  Duplicates, retransmissions, and latency are mechanism
   noise (piggybacking re-sends the final head as an ack carrier) and are
   deliberately excluded. *)
let parity_counters (s : Mux.stats) =
  (s.Mux.offered, s.Mux.delivered, s.Mux.acked, s.Mux.shed, s.Mux.forged_accepts,
   s.Mux.plaintext_leaks)

let pig_null_drains_and_matches_slotted () =
  let p = Mux.run (pig_spec ()) ~adversary:null in
  let s = Mux.run (pig_spec ~ack_mode:Mux.Slotted ()) ~adversary:null in
  check Alcotest.bool "completed" true p.Mux.engine.Radio.Engine.completed;
  let ps = p.Mux.stats in
  check Alcotest.int "offered = rate * logical * rounds" (24 * 40) ps.Mux.offered;
  check Alcotest.int "fully drained: delivered = offered" ps.Mux.offered ps.Mux.delivered;
  check Alcotest.int "fully drained: acked = delivered" ps.Mux.delivered ps.Mux.acked;
  check Alcotest.int "no shedding" 0 ps.Mux.shed;
  check Alcotest.int "no forged accepts" 0 ps.Mux.forged_accepts;
  check Alcotest.int "no leaks" 0 ps.Mux.plaintext_leaks;
  (* The one flush round re-sends each final head as its ack carrier. *)
  check Alcotest.int "flush-round retransmissions only" 24 ps.Mux.retransmissions;
  check Alcotest.bool "parity with slotted on the drained counters" true
    (parity_counters ps = parity_counters s.Mux.stats);
  (* Fewer real radio rounds for the same emulated service. *)
  check Alcotest.bool "piggybacking uses fewer real rounds" true
    (p.Mux.engine.Radio.Engine.rounds_used < s.Mux.engine.Radio.Engine.rounds_used)

let pig_rpe_pinned () =
  (* The headline reduction at service-bench scale: 1024 logical channels
     over 16 physical ones go from 2S + 2 = 130 real rounds per emulated
     round to S + 1 = 65 — an exact 2x. *)
  let big ack_mode =
    Mux.make ~key ~logical:1024 ~phys:16 ~budget:2 ~ack_mode ~rounds:1 ()
  in
  check Alcotest.int "slotted rpe at 1024/16" 130
    (Mux.real_rounds_per_emulated (big Mux.Slotted));
  check Alcotest.int "piggybacked rpe at 1024/16" 65
    (Mux.real_rounds_per_emulated (big Mux.Piggybacked));
  check Alcotest.int "slotted rpe at 24/8" 8
    (Mux.real_rounds_per_emulated (pig_spec ~ack_mode:Mux.Slotted ()));
  check Alcotest.int "piggybacked rpe at 24/8" 4
    (Mux.real_rounds_per_emulated (pig_spec ()));
  (* Duplex pairing also halves the node count. *)
  check Alcotest.int "slotted nodes" (2 * 1024) (Mux.node_count (big Mux.Slotted));
  check Alcotest.int "piggybacked nodes" 1024 (Mux.node_count (big Mux.Piggybacked))

let pig_early_jamming_recovers () =
  let spec = pig_spec ~rounds:60 () in
  let jam_window = 6 * Mux.real_rounds_per_emulated spec in
  let p = Mux.run spec ~adversary:(early_jammer ~real_rounds:jam_window ~budget:2) in
  let ps = p.Mux.stats in
  check Alcotest.bool "completed" true p.Mux.engine.Radio.Engine.completed;
  check Alcotest.int "offered in full" (24 * 60) ps.Mux.offered;
  check Alcotest.bool "jamming forces retransmissions" true
    (ps.Mux.retransmissions > 24);
  check Alcotest.int "no shedding into a generous queue" 0 ps.Mux.shed;
  check Alcotest.int "authentication holds" 0 ps.Mux.forged_accepts;
  check Alcotest.int "secrecy holds" 0 ps.Mux.plaintext_leaks;
  (* Rate 1 leaves no spare slots, so messages stalled during the jam
     window stay queued to the end — but never more than the window holds,
     and acks trail deliveries by at most the flush round's sends. *)
  check Alcotest.bool "delivered within backlog bound" true
    (ps.Mux.delivered >= ps.Mux.offered - (6 * 24));
  check Alcotest.bool "acked close behind delivered" true
    (ps.Mux.acked <= ps.Mux.delivered && ps.Mux.delivered - ps.Mux.acked <= 2 * 24)

let pig_outsiders_blocked () =
  let r = Mux.run (pig_spec ~outsiders:3 ()) ~adversary:null in
  check Alcotest.bool "outsiders overheard traffic" true (r.Mux.stats.Mux.snooped > 0);
  check Alcotest.int "secrecy: no outsider decryption" 0 r.Mux.stats.Mux.plaintext_leaks;
  check Alcotest.int "authenticity: no forged accepts" 0 r.Mux.stats.Mux.forged_accepts;
  (* Outsider forgeries collide with data slots like jamming, so the rate-1
     pipeline keeps a small backlog; the service must still mostly deliver. *)
  check Alcotest.bool "service still works" true
    (r.Mux.stats.Mux.delivered > (r.Mux.stats.Mux.offered * 3) / 4)

let pig_spec_validation () =
  Alcotest.check_raises "piggybacked needs Acked"
    (Invalid_argument "Mux.make: Piggybacked acks need the Acked transport") (fun () ->
      ignore
        (Mux.make ~key ~logical:4 ~phys:4 ~budget:1
           ~transport:(Mux.Repeat { reps = 3; group = 2 })
           ~ack_mode:Mux.Piggybacked ~rounds:10 ()));
  Alcotest.check_raises "piggybacked needs even logical"
    (Invalid_argument "Mux.make: Piggybacked acks need an even number of logical channels")
    (fun () ->
      ignore (Mux.make ~key ~logical:5 ~phys:4 ~budget:1 ~ack_mode:Mux.Piggybacked ~rounds:10 ()))

let () =
  Alcotest.run "mux"
    [ ( "window",
        [ qcheck window_matches_model;
          Alcotest.test_case "duplicate and eviction" `Quick window_duplicate_after_note;
          Alcotest.test_case "width validation" `Quick window_rejects_bad_width ] );
      ( "epoch",
        [ qcheck epoch_verdict_properties;
          Alcotest.test_case "boundary cases" `Quick epoch_boundary_cases ] );
      ( "acked",
        [ Alcotest.test_case "null adversary delivers" `Quick acked_null_delivers;
          Alcotest.test_case "jamming retransmits" `Quick acked_jamming_retransmits;
          Alcotest.test_case "backpressure sheds" `Quick backpressure_sheds;
          Alcotest.test_case "outsiders blocked" `Quick outsiders_cannot_read_or_forge;
          Alcotest.test_case "latency sane" `Quick latency_percentiles_sane;
          Alcotest.test_case "spec validation" `Quick spec_validation ] );
      ( "determinism",
        [ Alcotest.test_case "pool sizes byte-identical" `Quick
            (jobs_byte_identical (base_spec ~rounds:30 ~outsiders:2 ()));
          Alcotest.test_case "piggybacked 1024/16 across the grain" `Quick
            (jobs_byte_identical ~adversary:(wide_jammer 3L) wide_pig);
          Alcotest.test_case "slotted 1024/16 jammed, outsiders, grace" `Quick
            (jobs_byte_identical ~adversary:(wide_jammer 5L)
               (wide_spec ~outsiders:4 ~rounds:5 ()));
          Alcotest.test_case "repeat 512x2 across the grain" `Quick
            (jobs_byte_identical ~adversary:(wide_jammer 7L)
               (wide_spec ~transport:(Mux.Repeat { reps = 2; group = 2 }) ~logical:512
                  ~outsiders:2 ~rounds:5 ()));
          Alcotest.test_case "repeat-20 stress at jobs 2" `Quick jobs_stress ] );
      ( "repeat",
        [ Alcotest.test_case "full delivery under jamming" `Quick repeat_transport_full_delivery ] );
      ( "piggybacked",
        [ Alcotest.test_case "null drains and matches slotted" `Quick
            pig_null_drains_and_matches_slotted;
          Alcotest.test_case "real-rounds reduction pinned" `Quick pig_rpe_pinned;
          Alcotest.test_case "early jamming recovers" `Quick pig_early_jamming_recovers;
          Alcotest.test_case "pool sizes byte-identical" `Quick
            (jobs_byte_identical (pig_spec ~outsiders:2 ()));
          Alcotest.test_case "outsiders blocked" `Quick pig_outsiders_blocked;
          Alcotest.test_case "spec validation" `Quick pig_spec_validation ] ) ]
