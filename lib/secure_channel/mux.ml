(* Multiplexed secure-channel service (ROADMAP item 2).

   Thousands of logical channels share one simulated radio network.  All
   protocol intelligence is central: once per emulated round, the first
   fiber resumed runs [prepare], which processes everything heard in the
   previous emulated round, runs the epoch / replay-window / backpressure
   state machines, and batch-seals and batch-MACs every frame the round
   will transmit.  Node fibers are thin actors — they read their slot plan
   from the shared state and move bytes.  Fibers resume strictly
   sequentially in node-id order within the engine's domain (the
   determinism contract), so the central mutable state needs no
   synchronization.

   The crypto is the step's floor, and it is per-frame and independent:
   building and sealing a payload, decoding, opening and parsing a heard
   frame, MACing or verifying an ack.  [chunks] cuts each batch of that
   work into contiguous chunks — one per pool domain, none below [grain]
   bytes of work — which run through [Parallel.map_ordered] with a
   {!Cipher.scratch} (or the {!Hmac} batch calls' own scratch) per chunk
   and are concatenated back in order.
   Chunks read only immutable inputs: the spec, the frame descriptors
   gathered beforehand, and epoch keys, which [keys] derives (and caches
   by epoch parity) on the calling domain before the fan-out, since the
   group PRF is not domain-safe.  Every state change — windows, queues,
   stats, latency, the round plan — is applied after the join, on the
   calling domain, in the order the one-domain step used.  So the output
   is byte-identical for every pool size, a one-domain scope included.

   Emulated-round layout (Acked transport): S data slots, a mid sync
   round, S ack slots, an end sync round — 2S+2 real rounds,
   S = ceil(logical / phys).  Logical channel c occupies slot [c mod S] at
   position [c / S]; a PRF-keyed offset per (emulated round, slot) rotates
   the whole slot across the physical band, so co-scheduled channels never
   collide with each other while the adversary cannot predict where any
   one channel lands.  The central step is split in two: [prepare_data]
   (round start: process last round's acks, enqueue offered load, seal
   this round's data frames) and [prepare_acks] (after the mid sync:
   process this round's received data, MAC this round's acks) — so a
   message is sent, delivered, and acknowledged within one emulated round.
   Each sync round guarantees that every listen of the preceding phase has
   stored its result before the next central step reads it.

   Repeat transport (the E9 broadcast shape): [group] members per logical
   channel; the designated sender repeats the sealed head frame [reps]
   times on a hopping channel while the rest listen — reps+1 real rounds
   per emulated round, no acks, the head is retired after its round. *)

module Cipher = Crypto.Cipher
module Hmac = Crypto.Hmac
module Prf = Crypto.Prf
module Sha256 = Crypto.Sha256

(* ------------------------------------------------------------------ *)
(* Pure replay-window and epoch-acceptance state machines.             *)
(* ------------------------------------------------------------------ *)

module Window = struct
  type t = { width : int; mutable hi : int; mutable mask : int }

  type verdict = Fresh | Duplicate | Out_of_window

  let create ~width =
    if width < 1 || width > 62 then
      invalid_arg "Mux.Window.create: width must be in 1..62";
    { width; hi = -1; mask = 0 }

  (* [mask] bit k records whether seq [hi - k] was delivered (bit 0 is
     [hi] itself); bits at or beyond [width] are never consulted. *)
  let check w seq =
    if seq < 0 then Out_of_window
    else if w.hi < 0 || seq > w.hi then Fresh
    else if w.hi - seq >= w.width then Out_of_window
    else if w.mask land (1 lsl (w.hi - seq)) <> 0 then Duplicate
    else Fresh

  let note w seq =
    if w.hi < 0 || seq > w.hi then begin
      let shift = if w.hi < 0 then 1 else seq - w.hi in
      w.mask <- (if shift >= 62 then 0 else (w.mask lsl shift) land ((1 lsl 62) - 1)) lor 1;
      w.hi <- seq
    end
    else w.mask <- w.mask lor (1 lsl (w.hi - seq))

  let highest w = w.hi
end

type epoch_verdict = Current | Previous | Stale

(* A frame sealed under [frame_epoch] is judged against the emulated round
   [now] it arrives in: the current epoch always decodes; the previous
   epoch is honoured only within [grace] emulated rounds of the boundary;
   anything older — or claiming a future epoch — is rejected unopened. *)
let epoch_verdict ~epoch_len ~grace ~now ~frame_epoch =
  let cur = now / epoch_len in
  if frame_epoch = cur then Current
  else if frame_epoch = cur - 1 && now mod epoch_len < grace then Previous
  else Stale

let epoch_of ~epoch_len ~now = now / epoch_len

(* ------------------------------------------------------------------ *)
(* Epoch keys.                                                         *)
(* ------------------------------------------------------------------ *)

(* Prepared cipher and ack-MAC keys of one epoch, derived by PRF from the
   group key and the epoch counter (see [keys]). *)
type epoch_keys = { ek_epoch : int; ck : Cipher.key; ak : Hmac.key }

(* ------------------------------------------------------------------ *)
(* Wire formats.                                                       *)
(* ------------------------------------------------------------------ *)

(* Big-endian u32 fields: int32 truncation keeps the low 32 bits, and the
   mask reads them back unsigned (bit 31 carries [pig_ack_flag]). *)
let set_u32 b pos n = Bytes.set_int32_be b pos (Int32.of_int n)

let read_u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF

(* [prefix], then each of [words] as a u32, then [tail], in one buffer. *)
let pack prefix words tail =
  let p = String.length prefix and w = 4 * Array.length words in
  let out = Bytes.create (p + w + String.length tail) in
  Bytes.blit_string prefix 0 out 0 p;
  Array.iteri (fun i n -> set_u32 out (p + (4 * i)) n) words;
  Bytes.blit_string tail 0 out (p + w) (String.length tail);
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

(* Authenticated payload of a data frame: channel id (epoch keys are shared
   by the whole group, so without the binding a valid frame could be
   spliced onto another logical channel), sequence number, sealing epoch,
   enqueue round (for latency accounting). *)
let encode_payload ~chan ~seq ~epoch ~enq body = pack "" [| chan; seq; epoch; enq |] body

let decode_payload payload =
  if String.length payload < 16 then None
  else
    Some
      ( read_u32 payload 0,
        read_u32 payload 4,
        read_u32 payload 8,
        read_u32 payload 12,
        String.sub payload 16 (String.length payload - 16) )

(* Data frame on the air: clear epoch header (selects the trial key without
   one MAC attempt per live epoch) + the sealed blob, framed in one
   buffer and parsed in place. *)
let encode_data ~epoch sealed =
  let out = Bytes.create (4 + Cipher.encoded_size sealed) in
  set_u32 out 0 epoch;
  Cipher.encode_into sealed out ~pos:4;
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

let decode_data blob =
  if String.length blob < 4 then None
  else
    match Cipher.decode_sub blob ~pos:4 with
    | Some sealed -> Some (read_u32 blob 0, sealed)
    | None -> None

(* Ack frame: marker, channel, seq, epoch, 32-byte HMAC under the epoch's
   ack subkey.  MAC-only — a bare sequence number needs no secrecy. *)
let ack_msg ~chan ~seq ~epoch = pack "ack|" [| chan; seq; epoch |] ""

let encode_ack ~chan ~seq ~epoch tag = pack "A" [| chan; seq; epoch |] tag

let decode_ack blob =
  if String.length blob <> 45 || blob.[0] <> 'A' then None
  else Some (read_u32 blob 1, read_u32 blob 5, read_u32 blob 9, String.sub blob 13 32)

(* Piggybacked-mode sealed payloads.  The first word carries the cumulative
   ack for the opposite direction (stored as ack + 1 so -1, "nothing
   delivered yet", encodes cleanly) with the kind flag folded into its top
   bit: flag clear is a data frame, flag set a bare ack carrier sent when
   the sender's queue is empty but the partner still has unretired frames.

   The layout is sized to the keystream: {!Cipher} keystream blocks are 32
   bytes, and the slotted data payload (16-byte header + default 16-byte
   body) fills exactly one.  A naive kind byte + ack word + full slotted
   header would spill the piggybacked payload into a second block and
   nearly double the stream-cipher work of every frame, so the sealing
   epoch — redundant inside the payload, because the clear epoch header
   selects the (epoch-derived) key and any tampering with it fails
   authentication outright — is dropped and the kind flag costs no bytes.
   At the default body size a piggybacked data payload is the same 32
   bytes as its slotted counterpart.  Distinct encodings keep the slotted
   wire format byte-for-byte untouched. *)
let pig_ack_flag = 1 lsl 31

let encode_pig_data ~ack ~chan ~seq ~enq body = pack "" [| ack + 1; chan; seq; enq |] body

let encode_pig_ack ~ack ~chan ~epoch ~round =
  pack "" [| (ack + 1) lor pig_ack_flag; chan; epoch; round |] ""

(* Piggybacked frames are re-sealed whenever the folded ack advances, so
   their nonces are keyed by (channel, emulated round) — unique per sealed
   blob — with tag bits keeping them disjoint from the slotted
   [nonce_of] space and from each other. *)
let pig_nonce ~tag ~chan ~round =
  Int64.logor
    (Int64.shift_left 1L tag)
    (Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int round))

(* Deterministic message stream: the body of message (channel, seq), padded
   or truncated to the configured size.  Receivers regenerate it, so a
   forged-but-authenticated delivery (impossible short of a MAC break) is
   detected without storing the offered payloads. *)
let gen_body ~payload ~chan ~seq =
  let base = Printf.sprintf "m|%d|%d|" chan seq in
  let b = String.length base in
  if b >= payload then String.sub base 0 payload
  else base ^ String.make (payload - b) 'x'

(* ------------------------------------------------------------------ *)
(* Specification.                                                      *)
(* ------------------------------------------------------------------ *)

type transport = Acked | Repeat of { reps : int; group : int }

type ack_mode = Slotted | Piggybacked

type spec = {
  key : string;
  logical : int;
  phys : int;
  budget : int;
  transport : transport;
  ack_mode : ack_mode;
  rounds : int;
  rate : int;
  queue_cap : int;
  window : int;
  epoch_len : int;
  grace : int;
  payload : int;
  outsiders : int;
  seed : int64;
}

let make ~key ~logical ~phys ~budget ?(transport = Acked) ?(ack_mode = Slotted) ~rounds
    ?(rate = 1) ?(queue_cap = 8) ?(window = 32) ?(epoch_len = 16) ?(grace = 4)
    ?(payload = 16) ?(outsiders = 0) ?(seed = 1L) () =
  if logical < 1 then invalid_arg "Mux.make: need at least one logical channel";
  if phys < 2 then invalid_arg "Mux.make: need at least 2 physical channels";
  if budget < 0 || budget >= phys then invalid_arg "Mux.make: need 0 <= budget < phys";
  if rounds < 1 then invalid_arg "Mux.make: need at least one emulated round";
  if rate < 0 then invalid_arg "Mux.make: negative rate";
  if queue_cap < 1 then invalid_arg "Mux.make: queue_cap must be positive";
  if epoch_len < 1 then invalid_arg "Mux.make: epoch_len must be positive";
  if grace < 0 || grace > epoch_len then invalid_arg "Mux.make: need 0 <= grace <= epoch_len";
  if payload < 0 then invalid_arg "Mux.make: negative payload";
  if outsiders < 0 then invalid_arg "Mux.make: negative outsiders";
  (match transport with
  | Acked -> ()
  | Repeat { reps; group } ->
    if reps < 1 then invalid_arg "Mux.make: Repeat needs reps >= 1";
    if group < 2 then invalid_arg "Mux.make: Repeat needs group >= 2");
  (match ack_mode with
  | Slotted -> ()
  | Piggybacked ->
    if transport <> Acked then
      invalid_arg "Mux.make: Piggybacked acks need the Acked transport";
    if logical < 2 || logical land 1 <> 0 then
      invalid_arg "Mux.make: Piggybacked acks need an even number of logical channels");
  ignore (Window.create ~width:window);
  { key; logical; phys; budget; transport; ack_mode; rounds; rate; queue_cap; window;
    epoch_len; grace; payload; outsiders; seed }

let service_nodes spec =
  match (spec.transport, spec.ack_mode) with
  | Acked, Slotted -> 2 * spec.logical
  (* Duplex pairing: node c is both the sender of channel c and the
     receiver of channel [c lxor 1], so one node per channel suffices. *)
  | Acked, Piggybacked -> spec.logical
  | Repeat { group; _ }, _ -> spec.logical * group

let node_count spec = service_nodes spec + spec.outsiders

(* Data (and ack) slots per phase: with S = ceil(logical / phys), the at
   most [phys] channels sharing a slot occupy distinct physical channels.
   Piggybacked mode needs S >= 2 so a node's out-channel c and in-channel
   [c lxor 1] (consecutive ids) always land in different slots. *)
let slots spec =
  match (spec.transport, spec.ack_mode) with
  | Acked, Slotted -> (spec.logical + spec.phys - 1) / spec.phys
  | Acked, Piggybacked -> max ((spec.logical + spec.phys - 1) / spec.phys) 2
  | Repeat { reps; _ }, _ -> reps

let real_rounds_per_emulated spec =
  match (spec.transport, spec.ack_mode) with
  | Acked, Slotted -> (2 * slots spec) + 2
  (* No ack phase and no mid sync: S data slots + the end sync round.  The
     cumulative ack rides inside the next data frame of the opposite
     direction. *)
  | Acked, Piggybacked -> slots spec + 1
  | Repeat { reps; _ }, _ -> reps + 1

(* ------------------------------------------------------------------ *)
(* Run statistics.                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable offered : int;
  mutable delivered : int;
  mutable acked : int;
  mutable duplicates : int;
  mutable stale_epoch : int;
  mutable out_of_window : int;
  mutable bad_frames : int;
  mutable shed : int;
  mutable retransmissions : int;
  mutable rekeys : int;
  mutable messages_done : int;
  mutable full_deliveries : int;
  mutable forged_accepts : int;
  mutable plaintext_leaks : int;
  mutable snooped : int;
}

let create_stats () =
  { offered = 0; delivered = 0; acked = 0; duplicates = 0; stale_epoch = 0;
    out_of_window = 0; bad_frames = 0; shed = 0; retransmissions = 0; rekeys = 0;
    messages_done = 0; full_deliveries = 0; forged_accepts = 0;
    plaintext_leaks = 0; snooped = 0 }

type result = {
  spec : spec;
  stats : stats;
  engine : Radio.Engine.result;
  latency_hist : int array;
  emulated_rounds : int;
  real_rounds_per_emulated : int;
}

let lat_buckets = 512

let latency_percentile result p =
  let hist = result.latency_hist in
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0
  else begin
    let target = 1 + int_of_float (p *. float_of_int (total - 1)) in
    let acc = ref 0 and ans = ref (Array.length hist - 1) and found = ref false in
    Array.iteri
      (fun d count ->
        if not !found then begin
          acc := !acc + count;
          if !acc >= target then begin
            ans := d;
            found := true
          end
        end)
      hist;
    !ans
  end

(* ------------------------------------------------------------------ *)
(* Central run state.                                                  *)
(* ------------------------------------------------------------------ *)

type state = {
  sp : spec;
  s : int;  (* slots per phase *)
  rpe : int;  (* real rounds per emulated round *)
  hop_prf : Prf.Keyed.t;
  group_prf : Prf.Keyed.t;
  (* Epoch keys cached by epoch parity: exactly the current and previous
     epoch are ever decodable, so the two slots never thrash. *)
  epoch_cache : epoch_keys option array;
  st : stats;
  lat : int array;
  mutable prepared_data : int;  (* last round [prepare_data] ran for; -1 before start *)
  mutable prepared_acks : int;  (* last round [prepare_acks] ran for; -1 before start *)
  (* The round plan fibers execute, per logical channel. *)
  data_blob : string array;  (* "" = nothing to send *)
  ack_blob : string array;  (* "" = no ack pending *)
  data_chan : int array;
  ack_chan : int array;
  (* What fibers heard last emulated round (stored at resume time). *)
  heard_data : Radio.Frame.t option array;  (* Acked: receiver of channel c *)
  heard_ack : Radio.Frame.t option array;  (* Acked: sender of channel c *)
  heard_multi : string list array;  (* Repeat: per node, reverse arrival order *)
  (* Bounded per-channel send queues (flat ring buffers). *)
  q_seq : int array;
  q_enq : int array;
  q_head : int array;
  q_len : int array;
  next_seq : int array;
  (* Sender side, per channel. *)
  sent_once : bool array;  (* head already transmitted at least once *)
  seal_seq : int array;  (* cache identity of [data_blob]; -1 = empty *)
  seal_epoch : int array;
  (* Receiver side, per channel (Acked). *)
  windows : Window.t array;
  ack_pend_seq : int array;  (* latest delivered seq, re-acked each round; -1 none *)
  ack_built_seq : int array;  (* cache identity of [ack_blob]; -1 = empty *)
  ack_built_epoch : int array;
  (* Piggybacked-ack extras, per channel. *)
  inflight : int array;  (* queue entries transmitted at least once *)
  cum_delivered : int array;  (* receiver: contiguous delivered prefix; -1 none *)
  (* Repeat transport extras. *)
  r_sender : int array;  (* member index transmitting this round's head *)
  r_windows : Window.t array;  (* per node *)
  r_chans : int array;  (* logical * reps hop assignments for this round *)
}

let create_state spec =
  let m = spec.logical in
  let nodes = node_count spec in
  let multi = match spec.transport with Acked -> 0 | Repeat _ -> nodes in
  let reps = match spec.transport with Acked -> 0 | Repeat { reps; _ } -> reps in
  { sp = spec;
    s = slots spec;
    rpe = real_rounds_per_emulated spec;
    hop_prf = Prf.Keyed.create (Sha256.digest ("mux-hop|" ^ spec.key));
    group_prf = Prf.Keyed.create spec.key;
    epoch_cache = [| None; None |];
    st = create_stats ();
    lat = Array.make lat_buckets 0;
    prepared_data = -1;
    prepared_acks = -1;
    data_blob = Array.make m "";
    ack_blob = Array.make m "";
    data_chan = Array.make m 0;
    ack_chan = Array.make m 0;
    heard_data = Array.make m None;
    heard_ack = Array.make m None;
    heard_multi = Array.make (max 1 multi) [];
    q_seq = Array.make (m * spec.queue_cap) 0;
    q_enq = Array.make (m * spec.queue_cap) 0;
    q_head = Array.make m 0;
    q_len = Array.make m 0;
    next_seq = Array.make m 0;
    sent_once = Array.make m false;
    seal_seq = Array.make m (-1);
    seal_epoch = Array.make m 0;
    windows = Array.init m (fun _ -> Window.create ~width:spec.window);
    ack_pend_seq = Array.make m (-1);
    ack_built_seq = Array.make m (-1);
    ack_built_epoch = Array.make m (-1);
    inflight = Array.make m 0;
    cum_delivered = Array.make m (-1);
    r_sender = Array.make m 0;
    r_windows = Array.init (max 1 multi) (fun _ -> Window.create ~width:spec.window);
    r_chans = Array.make (max 1 (m * reps)) 0 }

let keys t epoch =
  match t.epoch_cache.(epoch land 1) with
  | Some k when k.ek_epoch = epoch -> k
  | Some _ | None ->
    let raw = Prf.Keyed.bytes t.group_prf ~label:"mux-epoch" ~counter:epoch in
    let k =
      { ek_epoch = epoch; ck = Cipher.key raw; ak = Hmac.key (Sha256.digest ("mux-ack|" ^ raw)) }
    in
    t.epoch_cache.(epoch land 1) <- Some k;
    k

let note_latency t d =
  let d = if d < 0 then 0 else if d >= lat_buckets then lat_buckets - 1 else d in
  t.lat.(d) <- t.lat.(d) + 1

(* Queue ring accessors. *)
let q_slot t c k = (c * t.sp.queue_cap) + ((t.q_head.(c) + k) mod t.sp.queue_cap)

let q_push t c ~enq =
  if t.q_len.(c) >= t.sp.queue_cap then false
  else begin
    let i = q_slot t c t.q_len.(c) in
    t.q_seq.(i) <- t.next_seq.(c);
    t.q_enq.(i) <- enq;
    t.next_seq.(c) <- t.next_seq.(c) + 1;
    t.q_len.(c) <- t.q_len.(c) + 1;
    true
  end

let q_pop t c =
  t.q_head.(c) <- (t.q_head.(c) + 1) mod t.sp.queue_cap;
  t.q_len.(c) <- t.q_len.(c) - 1;
  t.sent_once.(c) <- false;
  t.seal_seq.(c) <- -1;
  t.data_blob.(c) <- ""

let head_seq t c = t.q_seq.(q_slot t c 0)
let head_enq t c = t.q_enq.(q_slot t c 0)

(* Epoch-batched accumulation: collect items per distinct epoch (at most
   two epochs are ever decodable), then drain each group in turn.  Items
   within a group keep collection order; groups drain in first-seen order
   — all deterministic. *)
let add_item items epoch v =
  match !items with
  | (e0, l0) :: rest when e0 = epoch -> items := (e0, v :: l0) :: rest
  | l -> (
    match List.assoc_opt epoch l with
    | Some prev ->
      items := (epoch, v :: prev) :: List.filter (fun (e, _) -> e <> epoch) l
    | None -> items := (epoch, [ v ]) :: l)

let drain_items items ~apply =
  List.iter
    (fun (epoch, rev_list) -> apply epoch (Array.of_list (List.rev rev_list)))
    (List.rev !items)

let verdict_at t ~now ~frame_epoch =
  epoch_verdict ~epoch_len:t.sp.epoch_len ~grace:t.sp.grace ~now ~frame_epoch

let decodable t ~now ~frame_epoch = verdict_at t ~now ~frame_epoch <> Stale

(* Queue [v] into its epoch's batch if that epoch still decodes at [now];
   stale frames are counted and never opened. *)
let admit t items ~now ~frame_epoch v =
  if decodable t ~now ~frame_epoch then add_item items frame_epoch v
  else t.st.stale_epoch <- t.st.stale_epoch + 1

let nonce_of ~chan ~seq =
  Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int seq)

(* ------------------------------------------------------------------ *)
(* Per-frame crypto fan-out.                                           *)
(* ------------------------------------------------------------------ *)

(* Work of one frame in bytes: what it hashes, plus a fixed allowance for
   the compressions every tag pays whatever the frame's size. *)
let frame_overhead = 64

(* A batch splits only into chunks of at least this much work — about
   half a millisecond of SHA-256 at small-frame rates — so handing a
   chunk to another domain never costs more than the chunk itself. *)
let grain = 16_384

(* [chunks ~frame_bytes items] cuts a batch into at most
   [Parallel.budget ()] contiguous chunks, none below [grain] bytes of
   work, for a [Parallel.map_ordered] whose images [Array.concat] merges
   back in order: byte-identical for every pool size.  The task closures
   are pure — they read shared immutable values (the spec, prepared keys,
   the frame descriptors), allocate their own scratch, and touch no run
   state; callers derive epoch keys before the fan-out and apply results
   after the join.  Each closure is written out at its [map_ordered] call,
   where radio_race checks it. *)
let chunks ~frame_bytes items =
  let n = Array.length items in
  if n = 0 then []
  else begin
    let work = n * (frame_overhead + frame_bytes) in
    let k = max 1 (min (min n (Parallel.budget ())) (work / grain)) in
    List.init k (fun i -> Array.sub items (i * n / k) (((i + 1) * n / k) - (i * n / k)))
  end

(* The keys a frame heard in round [now] may open under: the current
   epoch's, and the previous one's within grace.  Derived on the calling
   domain before any fan-out: [keys] fills the run's cache, and the group
   PRF shares its key's schedule scratch. *)
let live_keys t ~now =
  let cur = epoch_of ~epoch_len:t.sp.epoch_len ~now in
  let prev =
    if cur > 0 && now mod t.sp.epoch_len < t.sp.grace then Some (keys t (cur - 1)) else None
  in
  (keys t cur, prev)

(* What the per-frame step makes of one heard data blob. *)
type 'a heard =
  | Garbled  (* not a well-formed data frame *)
  | Stale_frame  (* sealed under an epoch that no longer decodes: never opened *)
  | Opened of int * 'a option  (* sealing epoch; [None] when the MAC fails *)

(* Decode, epoch-check, open and [parse] one [(key, blob)]: the pure
   per-frame half of every receive step. *)
let open_blob sp (cur, prev) ~now ~parse s (k, blob) =
  match decode_data blob with
  | None -> Garbled
  | Some (frame_epoch, sealed) -> (
    let keys =
      match epoch_verdict ~epoch_len:sp.epoch_len ~grace:sp.grace ~now ~frame_epoch with
      | Current -> Some cur
      | Previous -> prev
      | Stale -> None
    in
    match keys with
    | None -> Stale_frame
    | Some ek ->
      Opened (frame_epoch, Option.map (parse k) (Cipher.open_scratch ek.ck s sealed)))

(* Open every heard [(key, blob)] in round [now] — the per-frame work fans
   out — then judge the results on this domain in the order the batched
   one-domain step used: garbled frames are bad and stale ones rejected
   in collection order, and the opened ones reach [deliver] grouped by
   epoch in first-seen order, MAC failures counted bad. *)
let open_heard t ~now ~parse ~deliver frames =
  let live = live_keys t ~now in
  let sp = t.sp in
  let results =
    chunks ~frame_bytes:(16 + sp.payload) frames
    |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
           let s = Cipher.scratch () in
           Array.map (open_blob sp live ~now ~parse s) chunk)
    |> Array.concat
  in
  let items = ref [] in
  Array.iteri
    (fun i (k, _) ->
      match results.(i) with
      | Garbled -> t.st.bad_frames <- t.st.bad_frames + 1
      | Stale_frame -> t.st.stale_epoch <- t.st.stale_epoch + 1
      | Opened (epoch, parsed) -> add_item items epoch (k, parsed))
    frames;
  drain_items items ~apply:(fun _ batch ->
      Array.iter
        (fun (k, parsed) ->
          match parsed with
          | None -> t.st.bad_frames <- t.st.bad_frames + 1
          | Some x -> deliver k x)
        batch)

(* A data payload as the per-frame step parses it.  [body_ok]: the body is
   the generated stream's message for ([chan], [seq]). *)
type data = { chan : int; seq : int; enq : int; body_ok : bool }

let parse_data ~payload p =
  match decode_payload p with
  | None -> None
  | Some (chan, seq, _epoch, enq, body) ->
    Some { chan; seq; enq; body_ok = String.equal body (gen_body ~payload ~chan ~seq) }

(* ------------------------------------------------------------------ *)
(* prepare: the once-per-emulated-round central step (Acked).          *)
(* ------------------------------------------------------------------ *)

(* One successfully opened and parsed data payload for channel [c],
   received in emulated round [arrival].  Returns the seq to (re-)ack, if
   any. *)
let deliver_parsed t c ~arrival d =
  if d.chan <> c then begin
    (* Valid MAC under the shared epoch key, but bound to another logical
       channel: a splice attempt, not a delivery. *)
    t.st.bad_frames <- t.st.bad_frames + 1;
    None
  end
  else begin
    match Window.check t.windows.(c) d.seq with
    | Window.Duplicate ->
      t.st.duplicates <- t.st.duplicates + 1;
      Some d.seq (* the previous ack was lost: re-ack *)
    | Window.Out_of_window ->
      t.st.out_of_window <- t.st.out_of_window + 1;
      None
    | Window.Fresh ->
      Window.note t.windows.(c) d.seq;
      t.st.delivered <- t.st.delivered + 1;
      note_latency t (arrival - d.enq);
      if not d.body_ok then t.st.forged_accepts <- t.st.forged_accepts + 1;
      Some d.seq
  end

(* The data frames heard in round [arrival] (both ack modes), by channel:
   a decodable non-sealed frame on a slot is spoofed traffic and bad on
   sight.  Clears the slots for the next round. *)
let take_heard_data t =
  let frames = ref [] in
  for c = 0 to t.sp.logical - 1 do
    (match t.heard_data.(c) with
    | None -> ()
    | Some (Radio.Frame.Sealed blob) -> frames := (c, blob) :: !frames
    | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1);
    t.heard_data.(c) <- None
  done;
  Array.of_list (List.rev !frames)

let process_heard_data t ~arrival =
  let payload = t.sp.payload in
  open_heard t ~now:arrival
    ~parse:(fun _ p -> parse_data ~payload p)
    ~deliver:(fun c parsed ->
      match parsed with
      | None -> t.st.bad_frames <- t.st.bad_frames + 1
      | Some d -> (
        match deliver_parsed t c ~arrival d with
        | Some seq -> t.ack_pend_seq.(c) <- seq
        | None -> ()))
    (take_heard_data t)

let process_heard_acks t ~arrival =
  let items = ref [] in
  for c = 0 to t.sp.logical - 1 do
    (match t.heard_ack.(c) with
    | None -> ()
    | Some (Radio.Frame.Sealed blob) -> (
      match decode_ack blob with
      | None -> t.st.bad_frames <- t.st.bad_frames + 1
      | Some (c', seq, epoch, tag) ->
        admit t items ~now:arrival ~frame_epoch:epoch (c, c', seq, tag))
    | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1);
    t.heard_ack.(c) <- None
  done;
  drain_items items ~apply:(fun epoch batch ->
      let ak = (keys t epoch).ak in
      let ok =
        chunks ~frame_bytes:16 batch
        |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
               Hmac.verify_batch ak
                 ~tags:(Array.map (fun (_, _, _, tag) -> tag) chunk)
                 (Array.map (fun (_, c', seq, _) -> ack_msg ~chan:c' ~seq ~epoch) chunk))
        |> Array.concat
      in
      Array.iteri
        (fun i (c, c', seq, _) ->
          if not ok.(i) then t.st.bad_frames <- t.st.bad_frames + 1
          else if c' <> c then t.st.bad_frames <- t.st.bad_frames + 1
          else if t.q_len.(c) > 0 && head_seq t c = seq then begin
            q_pop t c;
            t.st.acked <- t.st.acked + 1
          end)
        batch)

let offer_load t ~e =
  for c = 0 to t.sp.logical - 1 do
    for _ = 1 to t.sp.rate do
      t.st.offered <- t.st.offered + 1;
      if not (q_push t c ~enq:e) then t.st.shed <- t.st.shed + 1
    done
  done

(* Seal each (channel, head seq, enqueue round) under [epoch] and cache the
   result as the channel's data frame (slotted and Repeat transports):
   payload, seal and framing fan out per frame; the cache is written after
   the join. *)
let seal_heads t ~epoch heads =
  let ck = (keys t epoch).ck and payload = t.sp.payload in
  let blobs =
    chunks ~frame_bytes:(16 + payload) heads
    |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
           let s = Cipher.scratch () in
           Array.map
             (fun (c, seq, enq) ->
               encode_payload ~chan:c ~seq ~epoch ~enq (gen_body ~payload ~chan:c ~seq)
               |> Cipher.seal_scratch ck s ~nonce:(nonce_of ~chan:c ~seq)
               |> encode_data ~epoch)
             chunk)
    |> Array.concat
  in
  Array.iteri
    (fun i (c, seq, _) ->
      t.seal_seq.(c) <- seq;
      t.seal_epoch.(c) <- epoch;
      t.data_blob.(c) <- blobs.(i))
    heads

(* Build (or reuse) the sealed data frame for every busy channel.  A cached
   frame survives as long as its sealing epoch is still decodable at the
   receiver — which is exactly how the epoch grace window gets exercised:
   a retransmission sealed just before a boundary rides the grace period
   instead of being re-sealed the instant the epoch turns. *)
let build_data_frames t ~e =
  let heads = ref [] in
  for c = 0 to t.sp.logical - 1 do
    if t.q_len.(c) = 0 then begin
      t.seal_seq.(c) <- -1;
      t.data_blob.(c) <- ""
    end
    else begin
      let seq = head_seq t c in
      let reusable =
        t.seal_seq.(c) = seq && decodable t ~now:e ~frame_epoch:t.seal_epoch.(c)
      in
      if not reusable then heads := (c, seq, head_enq t c) :: !heads;
      if t.sent_once.(c) then t.st.retransmissions <- t.st.retransmissions + 1;
      t.sent_once.(c) <- true
    end
  done;
  seal_heads t
    ~epoch:(epoch_of ~epoch_len:t.sp.epoch_len ~now:e)
    (Array.of_list (List.rev !heads))

(* Build (or reuse) the pending ack frame for every channel that has
   delivered at least once.  Acks are re-sent every emulated round (the
   slot is reserved anyway), which is what recovers from lost acks. *)
let build_ack_frames t ~e =
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  let pending = ref [] in
  for c = 0 to t.sp.logical - 1 do
    let seq = t.ack_pend_seq.(c) in
    if seq < 0 then t.ack_blob.(c) <- ""
    else begin
      let reusable =
        t.ack_built_seq.(c) = seq && decodable t ~now:e ~frame_epoch:t.ack_built_epoch.(c)
      in
      if not reusable then pending := (c, seq) :: !pending
    end
  done;
  let pending = Array.of_list (List.rev !pending) in
  let ak = (keys t epoch).ak in
  let blobs =
    chunks ~frame_bytes:16 pending
    |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
           let tags =
             Hmac.mac_batch ak (Array.map (fun (c, seq) -> ack_msg ~chan:c ~seq ~epoch) chunk)
           in
           Array.mapi (fun i (c, seq) -> encode_ack ~chan:c ~seq ~epoch tags.(i)) chunk)
    |> Array.concat
  in
  Array.iteri
    (fun i (c, seq) ->
      t.ack_built_seq.(c) <- seq;
      t.ack_built_epoch.(c) <- epoch;
      t.ack_blob.(c) <- blobs.(i))
    pending

(* PRF-keyed slot rotation: every channel of slot s lands on a distinct
   physical channel, and the whole slot's placement is unpredictable.  The
   offset depends only on the slot, so the PRF is drawn once per (slot,
   phase) and fanned out — with thousands of channels over a few dozen
   slots, drawing it per channel made this loop as expensive as sealing
   the frames it was placing. *)
let place_slots t ~e ~label chans =
  let off =
    Array.init t.s (fun s ->
        Prf.Keyed.below t.hop_prf ~label ~counter:((e * t.s) + s) t.sp.phys)
  in
  for c = 0 to t.sp.logical - 1 do
    chans.(c) <- ((c / t.s) + off.(c mod t.s)) mod t.sp.phys
  done

(* ------------------------------------------------------------------ *)
(* prepare (Acked transport, piggybacked acks).                        *)
(* ------------------------------------------------------------------ *)

(* Frames a sender may have in the air before its first retire: the ack
   for round e's frame rides the opposite direction's round e+1 frame and
   is processed at the start of round e+2, so a window of two keeps the
   pipeline full at rate 1. *)
let pig_send_window = 2

(* Receiver side: extend the contiguous delivered prefix of channel [c]
   using the replay window's own delivery record. *)
let advance_cum t c =
  while Window.check t.windows.(c) (t.cum_delivered.(c) + 1) = Window.Duplicate do
    t.cum_delivered.(c) <- t.cum_delivered.(c) + 1
  done

(* Sender side of channel [c]: a cumulative ack retires every queued head
   up to [ack].  Only frames sent at least once can be acknowledged, so
   [inflight] shrinks in step with the queue. *)
let apply_cum_ack t c ~ack =
  while t.q_len.(c) > 0 && t.inflight.(c) > 0 && head_seq t c <= ack do
    q_pop t c;
    t.inflight.(c) <- t.inflight.(c) - 1;
    t.st.acked <- t.st.acked + 1
  done

(* An opened piggybacked payload heard on channel [c], as the per-frame
   step parses it: malformed, a bare ack carrier (fixed size, bound to its
   own channel), or a data frame with its carried ack. *)
type pig =
  | Pig_bad
  | Pig_ack of int
  | Pig_data of int * data

let parse_pig ~payload c p =
  let len = String.length p in
  if len < 16 then Pig_bad
  else begin
    let word = read_u32 p 0 in
    let ack = (word land lnot pig_ack_flag) - 1 in
    if word land pig_ack_flag <> 0 then
      if len <> 16 || read_u32 p 4 <> c then Pig_bad else Pig_ack ack
    else begin
      let chan = read_u32 p 4 and seq = read_u32 p 8 and enq = read_u32 p 12 in
      let body = String.sub p 16 (len - 16) in
      let body_ok = String.equal body (gen_body ~payload ~chan ~seq) in
      Pig_data (ack, { chan; seq; enq; body_ok })
    end
  end

(* Fold the carried ack into the opposite direction's queue, then (for
   data frames) run the regular delivery judgement and advance the
   cumulative prefix. *)
let deliver_pig t c ~arrival = function
  | Pig_bad -> t.st.bad_frames <- t.st.bad_frames + 1
  | Pig_ack ack -> apply_cum_ack t (c lxor 1) ~ack
  | Pig_data (ack, d) ->
    apply_cum_ack t (c lxor 1) ~ack;
    (match deliver_parsed t c ~arrival d with Some _ | None -> ());
    advance_cum t c

let process_heard_pig t ~arrival =
  let payload = t.sp.payload in
  open_heard t ~now:arrival ~parse:(parse_pig ~payload) ~deliver:(deliver_pig t ~arrival)
    (take_heard_data t)

(* Build this round's frame per channel: the next unsent queue entry while
   the send window has room, the unacknowledged head otherwise, or a bare
   ack carrier when the queue is empty but the partner still has frames in
   flight.  Every frame folds in the current cumulative ack, so frames are
   re-sealed each round under a (channel, round)-keyed nonce. *)
let build_pig_frames t ~e =
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  let frames = ref [] in
  for c = 0 to t.sp.logical - 1 do
    t.data_blob.(c) <- "";
    let ack = t.cum_delivered.(c lxor 1) in
    if t.q_len.(c) > 0 then begin
      let fresh = t.inflight.(c) < t.q_len.(c) && t.inflight.(c) < pig_send_window in
      let slot = q_slot t c (if fresh then t.inflight.(c) else 0) in
      if fresh then t.inflight.(c) <- t.inflight.(c) + 1
      else t.st.retransmissions <- t.st.retransmissions + 1;
      frames := (c, ack, Some (t.q_seq.(slot), t.q_enq.(slot))) :: !frames
    end
    else if t.inflight.(c lxor 1) > 0 && ack >= 0 then frames := (c, ack, None) :: !frames
  done;
  let frames = Array.of_list (List.rev !frames) in
  let ck = (keys t epoch).ck and payload = t.sp.payload in
  let blobs =
    chunks ~frame_bytes:(16 + payload) frames
    |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
           let s = Cipher.scratch () in
           Array.map
             (fun (c, ack, k) ->
               let nonce, msg =
                 match k with
                 | Some (seq, enq) ->
                   ( pig_nonce ~tag:61 ~chan:c ~round:e,
                     encode_pig_data ~ack ~chan:c ~seq ~enq (gen_body ~payload ~chan:c ~seq) )
                 | None ->
                   ( pig_nonce ~tag:62 ~chan:c ~round:e,
                     encode_pig_ack ~ack ~chan:c ~epoch ~round:e )
               in
               encode_data ~epoch (Cipher.seal_scratch ck s ~nonce msg))
             chunk)
    |> Array.concat
  in
  Array.iteri (fun i (c, _, _) -> t.data_blob.(c) <- blobs.(i)) frames

(* ------------------------------------------------------------------ *)
(* prepare (Repeat transport).                                         *)
(* ------------------------------------------------------------------ *)

let process_heard_multi t ~arrival ~group =
  (* Open the distinct sealed blobs heard across all members once each,
     then judge each member's arrival list against the opened table.  The
     table is lookup-only, so the Hashtbl introduces no iteration-order
     nondeterminism. *)
  let opened : (string, data option) Hashtbl.t = Hashtbl.create 64 in
  let distinct = ref [] in
  for node = 0 to (t.sp.logical * group) - 1 do
    List.iter
      (fun blob ->
        if not (Hashtbl.mem opened blob) then begin
          Hashtbl.add opened blob None;
          distinct := (blob, blob) :: !distinct
        end)
      (List.rev t.heard_multi.(node))
  done;
  let payload = t.sp.payload in
  open_heard t ~now:arrival
    ~parse:(fun _ p -> parse_data ~payload p)
    ~deliver:(Hashtbl.replace opened)
    (Array.of_list (List.rev !distinct));
  (* Per-node delivery, then per-channel head accounting: the head was
     repeated [reps] times in round [arrival] and is now retired — either
     every receiver has it (a full delivery) or the adversary won the round
     for the missing ones. *)
  for c = 0 to t.sp.logical - 1 do
    if t.q_len.(c) > 0 && t.sent_once.(c) then begin
      let seq = head_seq t c in
      let hits = ref 0 in
      for m = 0 to group - 1 do
        let node = (c * group) + m in
        if m <> t.r_sender.(c) then begin
          let got = ref false in
          List.iter
            (fun blob ->
              if not !got then
                match Hashtbl.find_opt opened blob with
                | Some (Some d) when d.chan = c -> (
                  got := true;
                  match Window.check t.r_windows.(node) d.seq with
                  | Window.Duplicate -> t.st.duplicates <- t.st.duplicates + 1
                  | Window.Out_of_window -> t.st.out_of_window <- t.st.out_of_window + 1
                  | Window.Fresh ->
                    Window.note t.r_windows.(node) d.seq;
                    t.st.delivered <- t.st.delivered + 1;
                    note_latency t (arrival - d.enq);
                    if not d.body_ok then t.st.forged_accepts <- t.st.forged_accepts + 1)
                | Some _ | None -> ())
            (List.rev t.heard_multi.(node));
          if !got then
            match Window.check t.r_windows.(node) seq with
            | Window.Duplicate -> incr hits (* the head is in this node's window *)
            | Window.Fresh | Window.Out_of_window -> ()
        end
      done;
      if !hits = group - 1 then t.st.full_deliveries <- t.st.full_deliveries + 1;
      t.st.messages_done <- t.st.messages_done + 1;
      q_pop t c
    end
  done;
  for node = 0 to (t.sp.logical * group) - 1 do
    t.heard_multi.(node) <- []
  done

let build_repeat_frames t ~e ~reps ~group =
  let heads = ref [] in
  for c = 0 to t.sp.logical - 1 do
    if t.q_len.(c) = 0 then begin
      t.seal_seq.(c) <- -1;
      t.data_blob.(c) <- "";
      t.sent_once.(c) <- false
    end
    else begin
      let seq = head_seq t c in
      heads := (c, seq, head_enq t c) :: !heads;
      t.r_sender.(c) <- seq mod group;
      t.sent_once.(c) <- true
    end
  done;
  seal_heads t
    ~epoch:(epoch_of ~epoch_len:t.sp.epoch_len ~now:e)
    (Array.of_list (List.rev !heads));
  for c = 0 to t.sp.logical - 1 do
    for j = 0 to reps - 1 do
      t.r_chans.((c * reps) + j) <-
        Prf.Keyed.below t.hop_prf ~label:"mux-hop-r"
          ~counter:((((e * reps) + j) * t.sp.logical) + c)
          t.sp.phys
    done
  done

(* ------------------------------------------------------------------ *)
(* The emulated-round driver.                                          *)
(* ------------------------------------------------------------------ *)

(* Round start: retire heads acknowledged last round, take offered load,
   seal this round's data frames, place the slots.  (Repeat transport does
   everything here — it has no ack phase.) *)
let prepare_data t ~e =
  if e > 0 && e mod t.sp.epoch_len = 0 then t.st.rekeys <- t.st.rekeys + 1;
  (match (t.sp.transport, t.sp.ack_mode) with
  | Acked, Slotted ->
    if e > 0 then process_heard_acks t ~arrival:(e - 1);
    offer_load t ~e;
    build_data_frames t ~e;
    place_slots t ~e ~label:"mux-hop-data" t.data_chan;
    place_slots t ~e ~label:"mux-hop-ack" t.ack_chan
  | Acked, Piggybacked ->
    if e > 0 then process_heard_pig t ~arrival:(e - 1);
    (* Round [rounds] is the flush round: acks and retransmissions still
       flow so the final deliveries get retired, but no new load enters. *)
    if e < t.sp.rounds then offer_load t ~e;
    build_pig_frames t ~e;
    (* Same PRF stream and counters as the slotted data phase, so a given
       (channel, emulated round) lands on the same physical channel in both
       ack modes whenever the slot counts coincide. *)
    place_slots t ~e ~label:"mux-hop-data" t.data_chan
  | Repeat { reps; group }, _ ->
    if e > 0 then process_heard_multi t ~arrival:(e - 1) ~group;
    offer_load t ~e;
    build_repeat_frames t ~e ~reps ~group);
  t.prepared_data <- e

(* After the mid sync: every data listen of this round has stored its
   result, so deliveries can be judged and this round's acks MACed now —
   the ack a sender hears acknowledges the frame it sent this round. *)
let prepare_acks t ~e =
  process_heard_data t ~arrival:e;
  build_ack_frames t ~e;
  t.prepared_acks <- e

(* Fibers resume in node-id order, so the first service fiber woken at each
   phase boundary runs the central step before any fiber reads the plan. *)
let ensure_prepared_data t ~e = if t.prepared_data < e then prepare_data t ~e
let ensure_prepared_acks t ~e = if t.prepared_acks < e then prepare_acks t ~e

(* Drain what the final round's ack phase delivered (fibers have exited; no
   frames left to build).  Data heard in the final round was already
   processed by its own [prepare_acks]; Repeat processes everything here. *)
let finalize t =
  match (t.sp.transport, t.sp.ack_mode) with
  | Acked, Slotted -> process_heard_acks t ~arrival:(t.sp.rounds - 1)
  | Acked, Piggybacked -> process_heard_pig t ~arrival:t.sp.rounds
  | Repeat { group; _ }, _ -> process_heard_multi t ~arrival:(t.sp.rounds - 1) ~group

let acked_service_body t (ctx : Radio.Engine.ctx) =
  let c = ctx.Radio.Engine.id / 2 in
  let is_sender = ctx.Radio.Engine.id land 1 = 0 in
  let s = c mod t.s in
  for e = 0 to t.sp.rounds - 1 do
    (* Data phase. *)
    ensure_prepared_data t ~e;
    Radio.Engine.idle_for s;
    if is_sender then
      if String.length t.data_blob.(c) > 0 then
        Radio.Engine.transmit ~chan:t.data_chan.(c) (Radio.Frame.Sealed t.data_blob.(c))
      else Radio.Engine.idle ()
    else t.heard_data.(c) <- Radio.Engine.listen ~chan:t.data_chan.(c);
    Radio.Engine.idle_for (t.s - 1 - s);
    Radio.Engine.idle ();
    (* Ack phase. *)
    ensure_prepared_acks t ~e;
    Radio.Engine.idle_for s;
    if is_sender then t.heard_ack.(c) <- Radio.Engine.listen ~chan:t.ack_chan.(c)
    else if String.length t.ack_blob.(c) > 0 then
      Radio.Engine.transmit ~chan:t.ack_chan.(c) (Radio.Frame.Sealed t.ack_blob.(c))
    else Radio.Engine.idle ();
    Radio.Engine.idle_for (t.s - 1 - s);
    Radio.Engine.idle ()
  done

(* Piggybacked service body: node [c] sends on channel c and listens on
   channel [c lxor 1]; consecutive channel ids occupy different slots
   (S >= 2), so one node covers both duties within the S data slots of the
   round.  One extra flush round (e = rounds) lets the final acks land. *)
let pig_service_body t (ctx : Radio.Engine.ctx) =
  let out_c = ctx.Radio.Engine.id in
  let in_c = out_c lxor 1 in
  let so = out_c mod t.s and si = in_c mod t.s in
  let lo = min so si and hi = max so si in
  let act slot =
    if slot = so then begin
      if String.length t.data_blob.(out_c) > 0 then
        Radio.Engine.transmit ~chan:t.data_chan.(out_c)
          (Radio.Frame.Sealed t.data_blob.(out_c))
      else Radio.Engine.idle ()
    end
    else t.heard_data.(in_c) <- Radio.Engine.listen ~chan:t.data_chan.(in_c)
  in
  for e = 0 to t.sp.rounds do
    ensure_prepared_data t ~e;
    Radio.Engine.idle_for lo;
    act lo;
    Radio.Engine.idle_for (hi - lo - 1);
    act hi;
    Radio.Engine.idle_for (t.s - 1 - hi);
    Radio.Engine.idle ()
  done

let repeat_service_body t ~reps ~group (ctx : Radio.Engine.ctx) =
  let node = ctx.Radio.Engine.id in
  let c = node / group in
  let m = node mod group in
  for e = 0 to t.sp.rounds - 1 do
    ensure_prepared_data t ~e;
    let sending = t.sent_once.(c) && m = t.r_sender.(c) in
    for j = 0 to reps - 1 do
      let chan = t.r_chans.((c * reps) + j) in
      if sending then
        Radio.Engine.transmit ~chan (Radio.Frame.Sealed t.data_blob.(c))
      else begin
        match Radio.Engine.listen ~chan with
        | Some (Radio.Frame.Sealed blob) ->
          t.heard_multi.(node) <- blob :: t.heard_multi.(node)
        | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1
        | None -> ()
      end
    done;
    Radio.Engine.idle ()
  done

(* Outsiders hold no key.  They snoop (and provably decode nothing) and
   periodically inject well-formed frames sealed under their own key —
   frames that pass every syntactic check and die on the MAC. *)
let outsider_body t (ctx : Radio.Engine.ctx) =
  let wrong = Cipher.key (Printf.sprintf "outsider-%d" ctx.Radio.Engine.id) in
  let scr = Cipher.scratch () in
  for e = 0 to t.sp.rounds - 1 do
    let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
    for r = 0 to t.rpe - 1 do
      if Prng.Rng.int ctx.Radio.Engine.rng 8 = 0 then begin
        let nonce = Int64.of_int (((e * t.rpe) + r) lxor ctx.Radio.Engine.id) in
        let payload =
          encode_payload
            ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.logical)
            ~seq:e ~epoch ~enq:e
            (gen_body ~payload:t.sp.payload ~chan:0 ~seq:e)
        in
        let blob = encode_data ~epoch (Cipher.seal_scratch wrong scr ~nonce payload) in
        Radio.Engine.transmit
          ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys)
          (Radio.Frame.Sealed blob)
      end
      else begin
        match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys) with
        | Some (Radio.Frame.Sealed blob) -> (
          t.st.snooped <- t.st.snooped + 1;
          match decode_data blob with
          | None -> ()
          | Some (_, sealed) -> (
            match Cipher.open_scratch wrong scr sealed with
            | Some _ -> t.st.plaintext_leaks <- t.st.plaintext_leaks + 1
            | None -> ()))
        | Some _ | None -> ()
      end
    done
  done

let run spec ~adversary =
  let t = create_state spec in
  let n = node_count spec in
  (* Piggybacked mode runs one extra (flush) emulated round. *)
  let emulated = spec.rounds + (match spec.ack_mode with Slotted -> 0 | Piggybacked -> 1) in
  let cfg =
    Radio.Config.make ~seed:spec.seed
      ~max_rounds:((emulated * t.rpe) + 4)
      ~track_channels:true ~n ~channels:spec.phys ~t:spec.budget ()
  in
  let service = service_nodes spec in
  let body (ctx : Radio.Engine.ctx) =
    if ctx.Radio.Engine.id >= service then outsider_body t ctx
    else
      match (spec.transport, spec.ack_mode) with
      | Acked, Slotted -> acked_service_body t ctx
      | Acked, Piggybacked -> pig_service_body t ctx
      | Repeat { reps; group }, _ -> repeat_service_body t ~reps ~group ctx
  in
  (* The per-frame crypto of every prepare step fans out over this scope's
     pool (or the enclosing one's: the outermost budget wins). *)
  let engine =
    Parallel.run ~jobs:(Parallel.default_jobs ()) (fun () ->
        let engine = Radio.Engine.run_nodes cfg ~adversary body in
        finalize t;
        engine)
  in
  { spec; stats = t.st; engine; latency_hist = t.lat; emulated_rounds = spec.rounds;
    real_rounds_per_emulated = t.rpe }

(* ------------------------------------------------------------------ *)
(* Canonical rendering (pool-independent).                             *)
(* ------------------------------------------------------------------ *)

let transport_name = function
  | Acked -> "acked"
  | Repeat { reps; group } -> Printf.sprintf "repeat(reps=%d,group=%d)" reps group

let ack_mode_name = function Slotted -> "slotted" | Piggybacked -> "piggybacked"

(* Everything here must be byte-identical across pool sizes — it is the
   text the bench's determinism rows hash. *)
let render_stats r =
  let b = Buffer.create 1024 in
  let s = r.stats in
  Printf.bprintf b "mux/v1 transport=%s ack=%s logical=%d phys=%d budget=%d rounds=%d\n"
    (transport_name r.spec.transport)
    (ack_mode_name r.spec.ack_mode)
    r.spec.logical r.spec.phys r.spec.budget r.spec.rounds;
  Printf.bprintf b
    "cfg rate=%d queue_cap=%d window=%d epoch_len=%d grace=%d payload=%d outsiders=%d seed=%Ld\n"
    r.spec.rate r.spec.queue_cap r.spec.window r.spec.epoch_len r.spec.grace
    r.spec.payload r.spec.outsiders r.spec.seed;
  Printf.bprintf b
    "load offered=%d delivered=%d acked=%d shed=%d retransmissions=%d duplicates=%d\n"
    s.offered s.delivered s.acked s.shed s.retransmissions s.duplicates;
  Printf.bprintf b
    "guard stale_epoch=%d out_of_window=%d bad_frames=%d forged_accepts=%d leaks=%d snooped=%d rekeys=%d\n"
    s.stale_epoch s.out_of_window s.bad_frames s.forged_accepts s.plaintext_leaks
    s.snooped s.rekeys;
  Printf.bprintf b "repeat messages_done=%d full_deliveries=%d\n" s.messages_done
    s.full_deliveries;
  Printf.bprintf b "latency p50=%d p99=%d samples=%d\n" (latency_percentile r 0.50)
    (latency_percentile r 0.99)
    (Array.fold_left ( + ) 0 r.latency_hist);
  Printf.bprintf b "rounds emulated=%d real_per_emulated=%d used=%d completed=%b\n"
    r.emulated_rounds r.real_rounds_per_emulated r.engine.Radio.Engine.rounds_used
    r.engine.Radio.Engine.completed;
  Printf.bprintf b "engine %s\n"
    (Format.asprintf "%a" Radio.Transcript.Stats.pp r.engine.Radio.Engine.stats);
  (match r.engine.Radio.Engine.channel_usage with
  | None -> Buffer.add_string b "usage none\n"
  | Some u ->
    let d = u.Radio.Transcript.Channel_usage.deliveries in
    let mn = Array.fold_left min max_int d and mx = Array.fold_left max 0 d in
    let total = Array.fold_left ( + ) 0 d in
    let coll = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.collisions in
    let jam = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.jammed in
    Printf.bprintf b "usage phys=%d deliveries=%d min=%d max=%d collisions=%d jammed=%d\n"
      (Array.length d) total mn mx coll jam);
  Buffer.contents b

let output_digest r = Sha256.digest_hex (render_stats r)
