(* Tests for the multiplexed secure-channel service: replay windows, epoch
   re-keying, backpressure, crypto-mode equivalence (batched vs per-message
   byte identity), pool-size determinism, both transports end-to-end,
   outcome pins, and the step driven without the engine (with a seeded
   decoder fuzz). *)

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
  Alcotest.check_raises "width 0"
    (Invalid_argument "Mux.Window.create: width must be in 1..62")
    (fun () -> ignore (Mux.Window.create ~width:0));
  Alcotest.check_raises "width 63"
    (Invalid_argument "Mux.Window.create: width must be in 1..62")
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

let jammer seed budget =
  Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels:8 ~budget

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

let latency_p99_in_digest () =
  (* The service's bench determinism row is [output_digest], which hashes
     [render_stats]; a one-round shift of every delivery's latency moves
     the p99 and must move the digest, so the row gates the p99 exactly. *)
  let r = Mux.run (base_spec ~rounds:40 ~logical:4 ()) ~adversary:(jammer 13L 2) in
  let p99 = Mux.latency_percentile r 0.99 in
  check Alcotest.bool "has latency samples" true
    (Array.exists (fun c -> c > 0) r.Mux.latency_hist);
  let later = { r with Mux.latency_hist = Array.append [| 0 |] r.Mux.latency_hist } in
  check Alcotest.int "shifted p99" (p99 + 1) (Mux.latency_percentile later 0.99);
  check Alcotest.bool "digest moves with the p99" false
    (String.equal (Mux.output_digest r) (Mux.output_digest later))

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
    observe = None }

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
      ignore
        (Mux.make ~key ~logical:5 ~phys:4 ~budget:1 ~ack_mode:Mux.Piggybacked ~rounds:10 ()))

(* ------------------------------------------------------------------ *)
(* Outcome pins.                                                       *)
(* ------------------------------------------------------------------ *)

(* Every transport and ack mode, with outsiders, under the null adversary
   and a jammer, at the default shape and at each extreme of the spec:
   the smallest window and queue, one-round epochs with no grace, a grace
   as long as the epoch, no offered load, empty bodies.  The pins are the
   first 16 hex digits of [output_digest], which hashes every counter,
   the latency histogram's percentiles and the engine's statistics. *)
let pin_modes =
  [ ("slotted", Mux.Acked, Mux.Slotted, 12);
    ("piggybacked", Mux.Acked, Mux.Piggybacked, 12);
    ("repeat g2", Mux.Repeat { reps = 3; group = 2 }, Mux.Slotted, 6);
    ("repeat g5", Mux.Repeat { reps = 4; group = 5 }, Mux.Slotted, 4) ]

let pin_spec (_, transport, ack_mode, logical) ?(window = 32) ?(queue_cap = 4)
    ?(epoch_len = 4) ?(grace = 2) ?(rate = 1) ?(payload = 16) () =
  Mux.make ~key ~logical ~phys:4 ~budget:1 ~transport ~ack_mode ~rounds:20 ~rate ~queue_cap
    ~window ~epoch_len ~grace ~payload ~outsiders:2 ~seed:31L ()

let pin_variants =
  [ ("default", fun m -> pin_spec m ());
    ("window 1 queue_cap 1", fun m -> pin_spec m ~window:1 ~queue_cap:1 ());
    ("epoch_len 1 grace 0", fun m -> pin_spec m ~epoch_len:1 ~grace:0 ());
    ("grace = epoch_len", fun m -> pin_spec m ~epoch_len:3 ~grace:3 ());
    ("rate 0", fun m -> pin_spec m ~rate:0 ());
    ("payload 0", fun m -> pin_spec m ~payload:0 ()) ]

let pin_adversaries =
  [ ("null", fun () -> null);
    ( "jammer",
      fun () -> Radio.Adversary.random_jammer (Prng.Rng.create 17L) ~channels:4 ~budget:1 ) ]

let outcome_pins =
  [ ("slotted default null", "8ac0530be0ab5093");
    ("slotted default jammer", "e11604a1db858de5");
    ("slotted window 1 queue_cap 1 null", "40ba320ef41645b7");
    ("slotted window 1 queue_cap 1 jammer", "8f308efa288b670c");
    ("slotted epoch_len 1 grace 0 null", "39ad27220b3a9fe9");
    ("slotted epoch_len 1 grace 0 jammer", "41680561f19d1101");
    ("slotted grace = epoch_len null", "dd6da5e1ac838724");
    ("slotted grace = epoch_len jammer", "2fb5d150f03d732c");
    ("slotted rate 0 null", "41065c6bba609b7b");
    ("slotted rate 0 jammer", "eb089abccc814525");
    ("slotted payload 0 null", "cc7304b67d46242b");
    ("slotted payload 0 jammer", "c2a7e609d198ad6d");
    ("piggybacked default null", "8102daf08637ddab");
    ("piggybacked default jammer", "a8ecda6723c2242a");
    ("piggybacked window 1 queue_cap 1 null", "37191fc4d2e0802f");
    ("piggybacked window 1 queue_cap 1 jammer", "7b43811da6d12110");
    ("piggybacked epoch_len 1 grace 0 null", "6e5123735ccdabec");
    ("piggybacked epoch_len 1 grace 0 jammer", "0916107d46127c5a");
    ("piggybacked grace = epoch_len null", "f3980f71fa2f7bdc");
    ("piggybacked grace = epoch_len jammer", "6c1385487b6c9f40");
    ("piggybacked rate 0 null", "bdf7127fef7880cd");
    ("piggybacked rate 0 jammer", "4bf86b219ef4d958");
    ("piggybacked payload 0 null", "173af28c20834eae");
    ("piggybacked payload 0 jammer", "bb8762638f208208");
    ("repeat g2 default null", "76653116db059c50");
    ("repeat g2 default jammer", "38c5cb8126a632eb");
    ("repeat g2 window 1 queue_cap 1 null", "c6629760d24bb44d");
    ("repeat g2 window 1 queue_cap 1 jammer", "0f4b90ad33abfcd2");
    ("repeat g2 epoch_len 1 grace 0 null", "871d651253f91e95");
    ("repeat g2 epoch_len 1 grace 0 jammer", "ddd90b22ef16b7ff");
    ("repeat g2 grace = epoch_len null", "11eb28046798e216");
    ("repeat g2 grace = epoch_len jammer", "f091140d8081d13e");
    ("repeat g2 rate 0 null", "19da6cccd287f504");
    ("repeat g2 rate 0 jammer", "1f8a9269965e3cb4");
    ("repeat g2 payload 0 null", "874def489ef145a2");
    ("repeat g2 payload 0 jammer", "e89edba3815776d1");
    ("repeat g5 default null", "6dd313342b5653c1");
    ("repeat g5 default jammer", "e32509a21f75e074");
    ("repeat g5 window 1 queue_cap 1 null", "f0eec0a235129b49");
    ("repeat g5 window 1 queue_cap 1 jammer", "81e252ffc04586f8");
    ("repeat g5 epoch_len 1 grace 0 null", "8829f450c5b51ca1");
    ("repeat g5 epoch_len 1 grace 0 jammer", "8a58bf2121c72621");
    ("repeat g5 grace = epoch_len null", "7cea3772281c54b8");
    ("repeat g5 grace = epoch_len jammer", "6cf6090df929a2f2");
    ("repeat g5 rate 0 null", "c282322ed50ef604");
    ("repeat g5 rate 0 jammer", "862a2c035b161a64");
    ("repeat g5 payload 0 null", "a69dc663f24c12bc");
    ("repeat g5 payload 0 jammer", "f93f1a92b77a4749") ]

let mux_outcome_pins () =
  let got =
    List.concat_map
      (fun ((mode, _, _, _) as m) ->
        List.concat_map
          (fun (variant, spec) ->
            List.map
              (fun (adv, adversary) ->
                let r = Mux.run (spec m) ~adversary:(adversary ()) in
                ( Printf.sprintf "%s %s %s" mode variant adv,
                  String.sub (Mux.output_digest r) 0 16 ))
              pin_adversaries)
          pin_variants)
      pin_modes
  in
  check Alcotest.int "one pin per case" (List.length got) (List.length outcome_pins);
  List.iter2
    (fun (name, d) (pname, pd) ->
      check Alcotest.string "case order" pname name;
      check Alcotest.string name pd d)
    got outcome_pins

(* ------------------------------------------------------------------ *)
(* The step, driven without the engine.                                *)
(* ------------------------------------------------------------------ *)

module Step = Mux.Step

let step_spec ?(transport = Mux.Acked) ?(ack_mode = Mux.Slotted) ?(logical = 1)
    ?(epoch_len = 16) ?(grace = 4) () =
  Mux.make ~key ~logical ~phys:2 ~budget:1 ~transport ~ack_mode ~rounds:8 ~epoch_len ~grace
    ()

let phases spec =
  match (spec.Mux.transport, spec.Mux.ack_mode) with Mux.Acked, Mux.Slotted -> 2 | _ -> 1

(* The nodes that hear channel [c] when its member [member] transmits. *)
let hearers spec c ~member =
  match (spec.Mux.transport, spec.Mux.ack_mode) with
  | Mux.Repeat { group; _ }, _ ->
    let members = List.filter (fun m -> m <> member) (List.init group Fun.id) in
    List.map (fun m -> (c * group) + m) members
  | Mux.Acked, Mux.Piggybacked -> [ c lxor 1 ]
  | Mux.Acked, Mux.Slotted -> [ (2 * c) + 1 - member ]

(* The frame channel [chan] sends in [phase] (which must send one), and the
   nodes that hear it. *)
let planned spec t ~chan ~phase =
  match Step.planned t ~chan ~phase with
  | Some (member, frame) -> (frame, hearers spec chan ~member)
  | None -> Alcotest.failf "channel %d sends nothing in phase %d" chan phase

let hear_all t nodes frame =
  List.iter (fun node -> Step.hear t ~node ~hop:0 (Some (Radio.Frame.Sealed frame))) nodes

let step_slotted_round_trip () =
  let spec = step_spec () in
  let t = Step.create spec in
  let s = Step.stats t in
  Step.step t ~e:0 ~phase:0;
  let data, receivers = planned spec t ~chan:0 ~phase:0 in
  check Alcotest.(list int) "member 1 hears the data" [ 1 ] receivers;
  hear_all t receivers data;
  Step.step t ~e:0 ~phase:1;
  check Alcotest.int "delivered" 1 s.Mux.delivered;
  let ack, senders = planned spec t ~chan:0 ~phase:1 in
  check Alcotest.(list int) "member 0 hears the ack" [ 0 ] senders;
  hear_all t senders ack;
  Step.step t ~e:1 ~phase:0;
  check Alcotest.int "retired within the round" 1 s.Mux.acked;
  check Alcotest.int "no retransmission" 0 s.Mux.retransmissions;
  check Alcotest.bool "the next head is a new frame" true
    (fst (planned spec t ~chan:0 ~phase:0) <> data)

(* An insider forgery: a data frame sealed under the right epoch key and
   nonce whose body is not the generated message for its (channel, seq).
   Its tag holds, so only the step's body check can tell: with each body
   byte flipped in turn, the delivery is counted as a forged accept.  The
   epoch key is spelled out from its parts (DESIGN.md, the nonce rule):
   HMAC(seed ‖ K, "mux-epoch" ‖ epoch). *)
let step_body_check_catches_insider () =
  let spec = step_spec () in
  let seed = Bytes.create 8 in
  Bytes.set_int64_be seed 0 spec.Mux.seed;
  let prf = Crypto.Prf.Keyed.create (Bytes.to_string seed ^ key) in
  let ck = Crypto.Cipher.key (Crypto.Prf.Keyed.bytes prf ~label:"mux-epoch" ~counter:0) in
  let cs = Crypto.Cipher.scratch () in
  for i = 0 to spec.Mux.payload - 1 do
    let t = Step.create spec in
    Step.step t ~e:0 ~phase:0;
    let data, receivers = planned spec t ~chan:0 ~phase:0 in
    let len = Crypto.Cipher.open_into ck cs data ~pos:4 in
    check Alcotest.int "the honest frame opens under the epoch key" (16 + spec.Mux.payload)
      len;
    let plain = Bytes.sub (Crypto.Cipher.plain cs) 0 len in
    Bytes.set plain (16 + i) (Char.chr (Char.code (Bytes.get plain (16 + i)) lxor 1));
    let forged = Bytes.of_string data in
    (match Crypto.Cipher.frame_nonce data ~pos:4 with
     | Some nonce -> Crypto.Cipher.seal_into ck cs ~nonce plain ~len forged ~pos:4
     | None -> Alcotest.fail "the honest frame has no nonce");
    hear_all t receivers (Bytes.to_string forged);
    Step.step t ~e:0 ~phase:1;
    check Alcotest.int
      (Printf.sprintf "body byte %d flipped: a forged accept" i)
      1 (Step.stats t).Mux.forged_accepts
  done

let step_pig_cumulative_ack () =
  let spec = step_spec ~ack_mode:Mux.Piggybacked ~logical:2 () in
  let t = Step.create spec in
  let s = Step.stats t in
  (* Channel 0's first two frames reach node 1; channel 1's frames are
     lost until round 2, whose frame folds in the cumulative ack 1. *)
  for e = 0 to 1 do
    Step.step t ~e ~phase:0;
    let frame, nodes = planned spec t ~chan:0 ~phase:0 in
    hear_all t nodes frame
  done;
  Step.step t ~e:2 ~phase:0;
  check Alcotest.int "both delivered" 2 s.Mux.delivered;
  check Alcotest.int "nothing acked yet" 0 s.Mux.acked;
  let frame, nodes = planned spec t ~chan:1 ~phase:0 in
  hear_all t nodes frame;
  Step.step t ~e:3 ~phase:0;
  check Alcotest.int "one cumulative ack retires two heads" 2 s.Mux.acked

let step_repeat_retires_head () =
  let spec = step_spec ~transport:(Mux.Repeat { reps = 2; group = 3 }) () in
  let t = Step.create spec in
  let s = Step.stats t in
  Step.step t ~e:0 ~phase:0;
  let frame, nodes = planned spec t ~chan:0 ~phase:0 in
  check Alcotest.(list int) "members 1 and 2 listen" [ 1; 2 ] nodes;
  (* Each member hears the head on a different repetition. *)
  List.iteri (fun hop node -> Step.hear t ~node ~hop (Some (Radio.Frame.Sealed frame))) nodes;
  Step.step t ~e:1 ~phase:0;
  check Alcotest.int "head retired" 1 s.Mux.messages_done;
  check Alcotest.int "full delivery" 1 s.Mux.full_deliveries;
  check Alcotest.int "both members delivered" 2 s.Mux.delivered;
  (* Round 1: only one of the two listening members hears the head. *)
  let frame, nodes = planned spec t ~chan:0 ~phase:0 in
  hear_all t [ List.hd nodes ] frame;
  Step.step t ~e:2 ~phase:0;
  check Alcotest.int "retired anyway" 2 s.Mux.messages_done;
  check Alcotest.int "not a full delivery" 1 s.Mux.full_deliveries;
  check Alcotest.int "one more delivery" 3 s.Mux.delivered

let step_replay_is_duplicate () =
  let spec = step_spec () in
  let t = Step.create spec in
  let s = Step.stats t in
  Step.step t ~e:0 ~phase:0;
  let data, receivers = planned spec t ~chan:0 ~phase:0 in
  hear_all t receivers data;
  Step.step t ~e:0 ~phase:1;
  Step.step t ~e:1 ~phase:0;
  hear_all t receivers data;
  Step.step t ~e:1 ~phase:1;
  check Alcotest.int "delivered once" 1 s.Mux.delivered;
  check Alcotest.int "replay is a duplicate" 1 s.Mux.duplicates;
  check Alcotest.int "not a bad frame" 0 s.Mux.bad_frames

let step_stale_epoch_unopened () =
  let spec = step_spec ~epoch_len:1 ~grace:1 () in
  let t = Step.create spec in
  let s = Step.stats t in
  Step.step t ~e:0 ~phase:0;
  let data, receivers = planned spec t ~chan:0 ~phase:0 in
  (* Corrupt the tag: opening the frame would count it bad. *)
  let forged = Bytes.of_string data in
  let last = Bytes.length forged - 1 in
  Bytes.set forged last (Char.chr (Char.code (Bytes.get forged last) lxor 1));
  Step.step t ~e:0 ~phase:1;
  Step.step t ~e:1 ~phase:0;
  Step.step t ~e:1 ~phase:1;
  Step.step t ~e:2 ~phase:0;
  hear_all t receivers data;
  Step.step t ~e:2 ~phase:1;
  Step.step t ~e:3 ~phase:0;
  hear_all t receivers (Bytes.to_string forged);
  Step.step t ~e:3 ~phase:1;
  check Alcotest.int "two epochs back: stale" 2 s.Mux.stale_epoch;
  check Alcotest.int "never opened" 0 s.Mux.bad_frames;
  check Alcotest.int "never delivered" 0 s.Mux.delivered

let step_pig_foreign_ack_ignored () =
  let spec = step_spec ~ack_mode:Mux.Piggybacked ~logical:4 () in
  let t = Step.create spec in
  let s = Step.stats t in
  (* Node 2 hears channel 3's first two frames, so channel 2's round-2
     frame carries the cumulative ack 1 for channel 3. *)
  for e = 0 to 1 do
    Step.step t ~e ~phase:0;
    let frame, nodes = planned spec t ~chan:3 ~phase:0 in
    hear_all t nodes frame
  done;
  Step.step t ~e:2 ~phase:0;
  let frame, _ = planned spec t ~chan:2 ~phase:0 in
  (* Replayed into channel 0's slot, its ack would retire channel 1's two
     in-flight heads. *)
  hear_all t [ 1 ] frame;
  Step.step t ~e:3 ~phase:0;
  check Alcotest.int "no ack applied" 0 s.Mux.acked;
  check Alcotest.int "counted as a splice" 1 s.Mux.bad_frames

(* Seeded decoder fuzz through the step: one mutated frame heard on
   channel 0 after [rounds] honest rounds.  Nothing may raise, nothing is
   delivered, and each non-authentic frame is counted exactly once, as bad
   or stale.  A valid frame of another channel is a splice, bad under
   every transport. *)
type mutation =
  | Flip of int
  | Truncate of int
  | Epoch of int
  | Splice
  | Random_blob of string
  | Unsealed

let fuzz_modes =
  [| step_spec ~logical:2 ();
     step_spec ~ack_mode:Mux.Piggybacked ~logical:4 ();
     step_spec ~transport:(Mux.Repeat { reps = 2; group = 2 }) ~logical:2 ();
     step_spec ~transport:(Mux.Repeat { reps = 3; group = 5 }) ~logical:2 ~epoch_len:2 ~grace:1
       () |]

let mutation_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Flip i) nat;
        map (fun i -> Truncate i) nat;
        map (fun i -> Epoch i) (int_bound 0x3FFF_FFFF);
        return Splice;
        map (fun s -> Random_blob s) (string_size (int_bound 120));
        return Unsealed ])

let mutate ~ack frame = function
  | Flip i ->
    let b = Bytes.of_string frame in
    let k = i mod (8 * Bytes.length b) in
    Bytes.set b (k / 8) (Char.chr (Char.code (Bytes.get b (k / 8)) lxor (1 lsl (k mod 8))));
    Some (Radio.Frame.Sealed (Bytes.to_string b))
  | Truncate i -> Some (Radio.Frame.Sealed (String.sub frame 0 (i mod String.length frame)))
  | Epoch d ->
    (* The epoch field, moved to any other value. *)
    let b = Bytes.of_string frame and pos = if ack then 9 else 0 in
    let old = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF in
    Bytes.set_int32_be b pos (Int32.of_int ((old + 1 + d) land 0xFFFF_FFFF));
    Some (Radio.Frame.Sealed (Bytes.to_string b))
  | Random_blob s -> Some (Radio.Frame.Sealed s)
  | Unsealed -> Some (Radio.Frame.Plain { src = 0; dst = 1; body = frame })
  | Splice -> None

let step_decoder_fuzz =
  QCheck.Test.make ~name:"mutated frames through the step" ~count:400
    QCheck.(
      make
        Gen.(
          quad (int_bound (Array.length fuzz_modes - 1)) (int_range 1 5) (int_bound 1)
            mutation_gen))
    (fun (mode, rounds, phase, mutation) ->
      let spec = fuzz_modes.(mode) in
      let phase = phase mod phases spec in
      let t = Step.create spec in
      let s = Step.stats t in
      (* A perfect radio for [rounds] emulated rounds. *)
      for e = 0 to rounds - 1 do
        for p = 0 to phases spec - 1 do
          Step.step t ~e ~phase:p;
          for chan = 0 to spec.Mux.logical - 1 do
            match Step.planned t ~chan ~phase:p with
            | Some (member, frame) -> hear_all t (hearers spec chan ~member) frame
            | None -> ()
          done
        done
      done;
      for p = 0 to phase do
        Step.step t ~e:rounds ~phase:p
      done;
      let frame, nodes = planned spec t ~chan:0 ~phase in
      let heard =
        match mutate ~ack:(phase = 1) frame mutation with
        | Some f -> f
        | None -> Radio.Frame.Sealed (fst (planned spec t ~chan:1 ~phase))
      in
      let rejects () = s.Mux.bad_frames + s.Mux.stale_epoch in
      let before = rejects () and delivered = s.Mux.delivered and acked = s.Mux.acked in
      Step.hear t ~node:(List.hd nodes) ~hop:0 (Some heard);
      if phase = 0 && phases spec = 2 then Step.step t ~e:rounds ~phase:1
      else Step.step t ~e:(rounds + 1) ~phase:0;
      s.Mux.forged_accepts = 0
      && s.Mux.delivered = delivered
      && s.Mux.acked = acked
      && rejects () - before = 1)

(* The step's allocation at 1,024 channels, engine-free.  A perfect radio
   for three emulated rounds, then one step per phase of round 3, each
   judging the 1,024 frames heard in the phase before and planning the
   next 1,024.  Every step runs outside a [Parallel.run] scope, so on the
   calling domain. *)
let alloc_spec ack_mode =
  Mux.make ~key ~logical:1024 ~phys:16 ~budget:1 ~ack_mode ~rounds:8 ()

let deliver_planned spec t ~phase =
  for chan = 0 to spec.Mux.logical - 1 do
    match Step.planned t ~chan ~phase with
    | Some (member, frame) -> hear_all t (hearers spec chan ~member) frame
    | None -> ()
  done

let count_planned spec t ~phase =
  let n = ref 0 in
  for chan = 0 to spec.Mux.logical - 1 do
    if Option.is_some (Step.planned t ~chan ~phase) then incr n
  done;
  !n

(* Minor words per planned and judged frame, and the minor collections one
   step took, for each phase of round 3.  The minor heap is enlarged (and
   emptied) first, so no collection is due to a full heap: each one
   counted is forced, by an array of more than [Max_young_wosize] (256)
   items built from a young first element. *)
let step_alloc ack_mode =
  let spec = alloc_spec ack_mode in
  let t = Step.create spec in
  let phases = phases spec in
  for e = 0 to 2 do
    for p = 0 to phases - 1 do
      Step.step t ~e ~phase:p;
      deliver_planned spec t ~phase:p
    done
  done;
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 lsl 20 };
  Fun.protect
    ~finally:(fun () -> Gc.set gc)
    (fun () ->
      List.init phases (fun p ->
          Gc.full_major ();
          let words = Gc.minor_words () and minors = (Gc.quick_stat ()).Gc.minor_collections in
          Step.step t ~e:3 ~phase:p;
          let words = Gc.minor_words () -. words
          and minors = (Gc.quick_stat ()).Gc.minor_collections - minors in
          let frames = spec.Mux.logical + count_planned spec t ~phase:p in
          deliver_planned spec t ~phase:p;
          (words /. float_of_int frames, minors)))

(* At most [words_cap] minor words per planned and judged frame: the
   frames themselves, the serial plan and judgement records, and two feed
   closures per seal or open.  Sealing and opening through record-form
   frames took 170 (piggybacked) and 104 / 119 (slotted data / ack step);
   the in-place path takes 50, 41 and 31. *)
let words_cap = 64.

(* Minor collections one step may take: exactly its serial arrays of
   1,024 young descriptors — the heard frames ([sealed_heard]) and the
   plan ([heads], [frames], [pending]), plus the slotted ack judgement's
   filtered list — so the per-chunk fan-out forces none.  Chunks as long
   as the batch took 4, 4 and 6. *)
let step_alloc_pinned ack_mode ~serial () =
  List.iteri
    (fun p ((words, minors), serial) ->
      if words > words_cap then
        Alcotest.failf "phase %d: %.1f minor words per frame (cap %.0f)" p words words_cap;
      if minors > serial then
        Alcotest.failf "phase %d: %d minor collections, %d of them serial" p minors serial)
    (List.combine (step_alloc ack_mode) serial)

(* Crypto work per op on the benchmark's svc-small and svc-bulk shapes
   (benchsuite/workload.ml, full scale, seed 1): the same spec, drawn from
   the same seed, run once under a null adversary.  The counters are
   summed over every domain, so the totals must not depend on the pool.

   Every seal and open costs ceil((n + 32) / 64) ChaCha20 blocks for an
   n-byte payload — one at svc-small's 32 bytes, 17 at svc-bulk's 1,040 —
   and two Poly1305 lanes of ceil(n / 16) + 2 blocks.  The SHA-256
   compressions left are the hop PRF and the epoch-key derivations.  With
   the SHA-256 keystream and HMAC tag these read 156,948 and 163,548
   compressions per op. *)
let bench_shape ~logical ~payload =
  let rng = Prng.Rng.create 1L in
  let draw () = Prng.Rng.bits64 rng in
  let key = Printf.sprintf "benchsuite-%Lx" (draw ()) in
  Mux.make ~key ~logical ~phys:16 ~budget:4 ~ack_mode:Mux.Piggybacked ~rounds:24 ~rate:1
    ~queue_cap:8 ~window:32 ~epoch_len:2 ~grace:1 ~payload ~seed:(draw ()) ()

let counters_per_op spec ~jobs =
  let before = Crypto.Counters.snapshot () in
  ignore (Parallel.run ~jobs (fun () -> Mux.run spec ~adversary:null) : Mux.result);
  Crypto.Counters.diff (Crypto.Counters.snapshot ()) before

(* The benchmark's three service workloads (Full scale, seed 1) under both
   ack modes: the engine rounds one op uses and its [Workload.digest], which
   hashes [Mux.render_stats] (delivery latency p50 and p99 included). *)
let service_cells =
  [ ( "svc-small",
      Mux.Slotted,
      3120,
      "6b2fa9dcf1f3f0de3b651216751533c010bfd55d176b902aaaa6002db2fa73d1" );
    ( "svc-small",
      Mux.Piggybacked,
      1625,
      "87a61d52c08dd8220bf57c4a673c9ba401f3b40bac841707012f7c4d2086c322" );
    ( "svc-bulk",
      Mux.Slotted,
      240,
      "42fb2eaf9b4a66f854d117005d21b1a8886bb46c6e27b7ed84907ccdee912da3" );
    ( "svc-bulk",
      Mux.Piggybacked,
      125,
      "568225acc7a3d6cdc06436dcf9f129548bad33e409cf7d1dfc16c8e678aac559" );
    ( "svc-jammed",
      Mux.Slotted,
      3120,
      "8bcb2fdad28be67e72f9f8f713ae8b7ec5e5aab1ab5884c9b0c1b881ab76a460" );
    ( "svc-jammed",
      Mux.Piggybacked,
      1625,
      "1617f9d5a9ac7196f65c67a5fda555badb2229599f0c43e385bc27bf65dc3224" ) ]

let service_pins () =
  let module W = Benchsuite.Workload in
  List.iter
    (fun (name, ack_mode, rounds, digest) ->
      let w = Option.get (W.find W.Full name) in
      let cell =
        match w.W.kind with
        | W.Svc s -> { w with W.kind = W.Svc { s with W.ack_mode = Some ack_mode } }
        | W.Fame _ | W.Sweep -> Alcotest.failf "%s is not a service workload" name
      in
      let res = W.run (W.inputs cell ~seed:1) in
      check Alcotest.(pair int string) name (rounds, digest) (W.rounds res, W.digest res))
    service_cells

let counters_pinned spec expect () =
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "counters per op at jobs=%d" jobs)
        expect
        (Crypto.Counters.render (counters_per_op spec ~jobs)))
    [ 1; 2 ]

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
          Alcotest.test_case "latency p99 in the digest" `Quick latency_p99_in_digest;
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
        [ Alcotest.test_case "full delivery under jamming" `Quick
            repeat_transport_full_delivery ] );
      ( "piggybacked",
        [ Alcotest.test_case "null drains and matches slotted" `Quick
            pig_null_drains_and_matches_slotted;
          Alcotest.test_case "real-rounds reduction pinned" `Quick pig_rpe_pinned;
          Alcotest.test_case "early jamming recovers" `Quick pig_early_jamming_recovers;
          Alcotest.test_case "pool sizes byte-identical" `Quick
            (jobs_byte_identical (pig_spec ~outsiders:2 ()));
          Alcotest.test_case "outsiders blocked" `Quick pig_outsiders_blocked;
          Alcotest.test_case "spec validation" `Quick pig_spec_validation ] );
      ("outcome", [ Alcotest.test_case "mux outcome pins" `Quick mux_outcome_pins ]);
      ( "counters",
        [ Alcotest.test_case "svc-small shape per op" `Quick
            (counters_pinned (bench_shape ~logical:1024 ~payload:16)
               ("crypto: sha256=3296 chacha20=51200 poly1305=409600 seal=25600 open=25600 "
              ^ "tag=0"));
          Alcotest.test_case "svc-bulk shape per op" `Quick
            (counters_pinned (bench_shape ~logical:64 ~payload:1024)
               ("crypto: sha256=296 chacha20=54400 poly1305=428800 seal=1600 open=1600 "
              ^ "tag=0"));
          Alcotest.test_case "service pins" `Quick service_pins ] );
      ( "step",
        [ Alcotest.test_case "slotted round trip" `Quick step_slotted_round_trip;
          Alcotest.test_case "piggybacked cumulative ack" `Quick step_pig_cumulative_ack;
          Alcotest.test_case "repeat retires the head" `Quick step_repeat_retires_head;
          Alcotest.test_case "replay is a duplicate" `Quick step_replay_is_duplicate;
          Alcotest.test_case "stale epoch never opened" `Quick step_stale_epoch_unopened;
          Alcotest.test_case "piggybacked foreign ack ignored" `Quick
            step_pig_foreign_ack_ignored;
          Alcotest.test_case "insider body caught" `Quick step_body_check_catches_insider;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 23 |])
            step_decoder_fuzz;
          Alcotest.test_case "piggybacked 1024: allocation pinned" `Quick
            (step_alloc_pinned Mux.Piggybacked ~serial:[ 2 ]);
          Alcotest.test_case "slotted 1024: allocation pinned" `Quick
            (step_alloc_pinned Mux.Slotted ~serial:[ 3; 2 ]) ] ) ]

