(* Multiplexed secure-channel service (ROADMAP item 2).

   Thousands of logical channels share one simulated radio network.  All
   protocol intelligence is one step over the central [state]: at the
   start of every phase of an emulated round, [step] judges what the
   service nodes heard in the phase before (epoch, replay-window and
   queue state machines) and fills the plan this phase sends from —
   offered load, batch-sealed and batch-MACed frames, their physical
   channels.  One thin engine body moves the bytes: each service node
   reads its duties off the plan and stores what it hears in the one
   heard buffer.  A node suspends once per idle span — the rounds
   between two of its actions, sync rounds included, are one [idle_for]
   — and the first fiber to act in a phase runs its step there: node 0,
   in the phase's first slot, right after the sync round.  Fibers resume
   strictly sequentially in node-id order within the engine's domain (the
   determinism contract), so the central mutable state needs no
   synchronization.  {!Step} drives the same step with no engine at
   all.

   The transport and ack mode are data: [layout] fixes, in one place,
   the service nodes per channel, the slots of a phase, the frame kind
   each phase carries, the flush round, and which node sends or hears
   which channel at which slot.

   - Slotted acks: S data slots, a mid sync round, S ack slots, an end
     sync round — 2S+2 real rounds, S = ceil(logical / phys).  Member 0
     of channel c sends its data frame, member 1 acks it, so a message is
     sent, delivered and acknowledged within one emulated round.
   - Piggybacked acks: channels c and [c lxor 1] form a duplex pair served
     by nodes c and [c lxor 1]; the cumulative ack rides inside the next
     frame of the opposite direction — S data slots and the sync round.
   - Repeat transport (the E9 broadcast shape): [group] members per
     channel; the designated sender repeats the sealed head [reps] times
     on a hopping channel while the rest listen — reps+1 real rounds, no
     acks, the head is retired after its round.

   Logical channel c of an acked mode occupies slot [c mod S] at position
   [c / S]; a PRF-keyed offset per (emulated round, slot) rotates the
   whole slot across the physical band, so co-scheduled channels never
   collide with each other while the adversary cannot predict where any
   one channel lands.  Each sync round guarantees that every listen of the
   preceding phase has stored its result before the next step reads it.

   The crypto is the step's floor, and it is per-frame and independent:
   building and sealing a payload, checking, opening and parsing a heard
   frame, MACing or verifying an ack.  It allocates little beyond the
   frames it sends: payloads are built in a per-chunk buffer and sealed
   straight into the wire frame, heard frames are opened and checked in
   place, and ack tags are MACed into and verified against the frame
   bytes.  [chunks] cuts each batch of that work into contiguous chunks —
   one per pool domain, none below [grain] bytes of work, none above
   [max_chunk] items — which run through [Parallel.map_ordered] with a
   scratch per chunk and are concatenated back in order.
   Chunks read only immutable inputs: the spec, the frame descriptors
   gathered beforehand, and epoch keys, which [keys] derives (and caches
   by epoch parity) on the calling domain before the fan-out, since the
   group PRF is not domain-safe.  Every state change — windows, queues,
   stats, latency, the plan — is applied after the join, on the calling
   domain.  Each heard frame touches only its own channel's receiver
   state and its partner's queue, so the order of judgement cannot change
   the output, and the output is byte-identical for every pool size, a
   one-domain scope included. *)

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

(* Prepared cipher and ack keys of one epoch, derived by PRF from the
   run's seed, group key and epoch counter (see [keys]).  Acks are tagged
   under a key of their own, so their nonces need not avoid the data frames'. *)
type epoch_keys = { ek_epoch : int; ck : Cipher.key; ak : Cipher.key }

(* ------------------------------------------------------------------ *)
(* Wire formats.                                                       *)
(* ------------------------------------------------------------------ *)

(* Big-endian u32 fields: int32 truncation keeps the low 32 bits, and the
   mask reads them back unsigned (bit 31 carries [pig_ack_flag]). *)
let set_u32 b pos n = Bytes.set_int32_be b pos (Int32.of_int n)

let read_u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF
let get_u32 b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xFFFF_FFFF

(* Every sealed payload opens with four u32 words; a data payload's
   generated body follows them.

   Slotted (and Repeat) data payload: channel id (epoch keys are shared
   by the whole group, so without the binding a valid frame could be
   spliced onto another logical channel), sequence number, sealing epoch,
   enqueue round (for latency accounting), body. *)
let put_words b w0 w1 w2 w3 =
  set_u32 b 0 w0;
  set_u32 b 4 w1;
  set_u32 b 8 w2;
  set_u32 b 12 w3

(* Data frame on the air: clear epoch header (selects the trial key without
   one MAC attempt per live epoch), then the cipher's wire encoding of the
   sealed payload — sealed into the frame and opened from it in place.

   Ack frame: marker, channel, seq, epoch, and the 32-byte {!Cipher} tag
   of those three words under the epoch's ack key, with nonce
   [nonce_of ~chan ~seq] ({!Cipher.mac_into}: one ChaCha20 block for the
   pads, two Poly1305 lanes).  Tag-only — a bare sequence number needs no
   secrecy.  The nonce is injective in (channel, seq), and the three
   words are fixed by it and by the key's epoch, so one nonce never tags
   two different acks, and an ack re-sent from the frame cache is the
   same 45 bytes. *)
let decode_ack blob =
  if String.length blob <> 45 || blob.[0] <> 'A' then None
  else Some (read_u32 blob 1, read_u32 blob 5, read_u32 blob 9)

(* Piggybacked-mode sealed payloads.  The first word carries the cumulative
   ack for the opposite direction (stored as ack + 1 so -1, "nothing
   delivered yet", encodes cleanly) with the kind flag folded into its top
   bit: flag clear is a data frame (then channel, seq, enqueue round,
   body), flag set a bare ack carrier (then channel, epoch, round) sent
   when the sender's queue is empty but the partner still has unretired
   frames.

   The layout is sized to the keystream: a {!Cipher} seal's first 32
   keystream bytes are the rest of ChaCha20 block 0 (whose first 32 are
   the tag's pads), and the slotted data payload (16-byte header + default
   16-byte body) fills exactly those.  A naive kind byte + ack word + full
   slotted header would spill the piggybacked payload into block 1 and
   double the stream-cipher work of every frame, so the sealing
   epoch — redundant inside the payload, because the clear epoch header
   selects the (epoch-derived) key and any tampering with it fails
   authentication outright — is dropped and the kind flag costs no bytes.
   At the default body size a piggybacked data payload is the same 32
   bytes as its slotted counterpart.  Distinct encodings keep the slotted
   wire format byte-for-byte untouched. *)
let pig_ack_flag = 1 lsl 31

(* Piggybacked frames are re-sealed whenever the folded ack advances, so
   their nonces are keyed by (channel, emulated round) — unique per sealed
   blob — with tag bits keeping them disjoint from the slotted
   [nonce_of] space and from each other. *)
let pig_nonce ~tag ~chan ~round =
  Int64.logor
    (Int64.shift_left 1L tag)
    (Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int round))

(* Deterministic message stream: the body of message (channel, seq) is
   "m|<chan>|<seq>|" padded with 'x' or truncated to [payload] bytes.
   Receivers regenerate it, so a forged-but-authenticated delivery
   (impossible short of a MAC break) is detected without storing the
   offered payloads.  [gen_body_into] writes it at [pos] of [b], digit by
   digit, allocating nothing. *)
let put_char b ~stop p ch =
  if p < stop then Bytes.set b p ch;
  p + 1

let rec put_digits b ~stop p n =
  let p = if n >= 10 then put_digits b ~stop p (n / 10) else p in
  put_char b ~stop p (Char.chr (48 + (n mod 10)))

let gen_body_into b ~pos ~payload ~chan ~seq =
  let stop = pos + payload in
  let p = put_char b ~stop (put_char b ~stop pos 'm') '|' in
  let p = put_char b ~stop (put_digits b ~stop p chan) '|' in
  let p = put_char b ~stop (put_digits b ~stop p seq) '|' in
  if p < stop then Bytes.fill b p (stop - p) 'x'

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

(* ------------------------------------------------------------------ *)
(* Layout: the transport and ack mode as data.                         *)
(* ------------------------------------------------------------------ *)

(* What the slots of one phase carry. *)
type kind =
  | Data  (* sealed queue heads, one receiver each, acked in the next phase *)
  | Ack  (* MAC-only acks of the data phase's deliveries *)
  | Pig  (* sealed duplex frames folding in the partner's cumulative ack *)
  | Broadcast  (* sealed queue heads repeated to every member, retired after the round *)

type layout = {
  per_chan : int;  (* nodes per channel: node n is member [n mod per_chan] of [n / per_chan] *)
  duplex : bool;  (* node n also hears channel [n lxor 1] *)
  lanes : int;  (* slot groups per phase: channel c uses lane [c mod lanes] *)
  hops : int;  (* consecutive slots per lane: a channel's sends per phase *)
  phases : kind array;  (* per phase of an emulated round; each ends with a sync round *)
  emulated : int;  (* emulated rounds on the air, the flush round included *)
}

(* With S = ceil(logical / phys), the at most [phys] channels sharing a
   slot occupy distinct physical channels.  Piggybacked mode needs S >= 2
   so a node's out-channel c and in-channel [c lxor 1] (consecutive ids)
   always land in different slots; its one extra flush round lets the
   final acks land. *)
let layout spec =
  let s = (spec.logical + spec.phys - 1) / spec.phys in
  match (spec.transport, spec.ack_mode) with
  | Acked, Slotted ->
    { per_chan = 2; duplex = false; lanes = s; hops = 1; phases = [| Data; Ack |];
      emulated = spec.rounds }
  | Acked, Piggybacked ->
    { per_chan = 1; duplex = true; lanes = max s 2; hops = 1; phases = [| Pig |];
      emulated = spec.rounds + 1 }
  | Repeat { reps; group }, _ ->
    { per_chan = group; duplex = false; lanes = 1; hops = reps; phases = [| Broadcast |];
      emulated = spec.rounds }

let node_count spec = (spec.logical * (layout spec).per_chan) + spec.outsiders

let real_rounds_per_emulated spec =
  let ly = layout spec in
  Array.length ly.phases * ((ly.lanes * ly.hops) + 1)

(* The channel whose frames node [node] hears. *)
let heard_chan ly node = if ly.duplex then node lxor 1 else node / ly.per_chan

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
  ly : layout;
  rpe : int;  (* real rounds per emulated round *)
  hop_prf : Prf.Keyed.t;
  group_prf : Prf.Keyed.t;
  (* Epoch keys cached by epoch parity: exactly the current and previous
     epoch are ever decodable, so the two slots never thrash. *)
  epoch_cache : epoch_keys option array;
  st : stats;
  lat : int array;
  mutable stepped : int;  (* last step run, as e * phases + phase; -1 before start *)
  (* The plan.  [frames] holds each phase's frame per channel at
     [phase * logical + c] ("" = nothing to send) and doubles as the
     frame cache, keyed by [built_seq] (-1 = empty) and [built_epoch]. *)
  frames : string array;
  built_seq : int array;
  built_epoch : int array;
  chans : int array;  (* this phase's physical channel per (channel, hop) *)
  heard : Radio.Frame.t option array;  (* per (service node, hop), this phase *)
  (* Bounded per-channel send queues (flat ring buffers). *)
  q_seq : int array;
  q_enq : int array;
  q_head : int array;
  q_len : int array;
  next_seq : int array;
  sent_once : bool array;  (* head already transmitted at least once *)
  (* Receiver side: per channel, or per member under Repeat. *)
  windows : Window.t array;
  ack_pend_seq : int array;  (* slotted: latest delivered seq, re-acked each round; -1 none *)
  (* Piggybacked extras, per channel. *)
  inflight : int array;  (* queue entries transmitted at least once *)
  cum_delivered : int array;  (* receiver: contiguous delivered prefix; -1 none *)
  r_sender : int array;  (* Repeat: member transmitting this round's head; -1 none *)
}

(* The group PRF's key: the run's seed as 8 big-endian bytes, then the
   group key, so every run has epoch keys of its own.  Nonces repeat
   across runs, with other payloads (see DESIGN.md, the nonce rule). *)
let epoch_prf_key spec =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 spec.seed;
  Bytes.to_string b ^ spec.key

let create_state spec =
  let m = spec.logical and ly = layout spec in
  let nodes = m * ly.per_chan and planned = m * Array.length ly.phases in
  let receivers = match ly.phases with [| Broadcast |] -> nodes | _ -> m in
  { sp = spec;
    ly;
    rpe = real_rounds_per_emulated spec;
    hop_prf = Prf.Keyed.create (Sha256.digest ("mux-hop|" ^ spec.key));
    group_prf = Prf.Keyed.create (epoch_prf_key spec);
    epoch_cache = [| None; None |];
    st = create_stats ();
    lat = Array.make lat_buckets 0;
    stepped = -1;
    frames = Array.make planned "";
    built_seq = Array.make planned (-1);
    built_epoch = Array.make planned (-1);
    chans = Array.make (m * ly.hops) 0;
    heard = Array.make (nodes * ly.hops) None;
    q_seq = Array.make (m * spec.queue_cap) 0;
    q_enq = Array.make (m * spec.queue_cap) 0;
    q_head = Array.make m 0;
    q_len = Array.make m 0;
    next_seq = Array.make m 0;
    sent_once = Array.make m false;
    windows = Array.init receivers (fun _ -> Window.create ~width:spec.window);
    ack_pend_seq = Array.make m (-1);
    inflight = Array.make m 0;
    cum_delivered = Array.make m (-1);
    r_sender = Array.make m (-1) }

let keys t epoch =
  match t.epoch_cache.(epoch land 1) with
  | Some k when k.ek_epoch = epoch -> k
  | Some _ | None ->
    let raw = Prf.Keyed.bytes t.group_prf ~label:"mux-epoch" ~counter:epoch in
    let k =
      { ek_epoch = epoch;
        ck = Cipher.key raw;
        ak = Cipher.key (Sha256.digest ("mux-ack|" ^ raw)) }
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
  t.built_seq.(c) <- -1;
  t.frames.(c) <- ""

let head_seq t c = t.q_seq.(q_slot t c 0)
let head_enq t c = t.q_enq.(q_slot t c 0)

let decodable t ~now ~frame_epoch =
  epoch_verdict ~epoch_len:t.sp.epoch_len ~grace:t.sp.grace ~now ~frame_epoch <> Stale

let nonce_of ~chan ~seq =
  Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int seq)

(* ------------------------------------------------------------------ *)
(* Per-frame crypto fan-out.                                           *)
(* ------------------------------------------------------------------ *)

(* Work of one frame in bytes: what it encrypts and tags, plus a fixed
   allowance for the work every seal or tag pays whatever the frame's size
   (ChaCha20 block 0 and the lanes' nonce and length blocks). *)
let frame_overhead = 64

(* A batch splits only into chunks of at least this much work, so handing
   a chunk to another domain never costs more than the chunk itself. *)
let grain = 16_384

(* And into chunks of at most [Max_young_wosize] items, so every chunk's
   result array is born on the minor heap.  A longer one is allocated in
   the major heap, and [Array.map] first empties the minor heap when its
   first element is young — a collection that stops every pool domain. *)
let max_chunk = 256

(* [chunks ~frame_bytes items] cuts a batch into contiguous chunks, at
   most [Parallel.budget ()] of them (none below [grain] bytes of work)
   unless [max_chunk] needs more, for a [Parallel.map_ordered] whose
   images [Array.concat] merges back in order: byte-identical for every
   pool size.  The task closures are pure — they read shared immutable
   values (the spec, prepared keys, the frame descriptors), allocate their
   own scratch, and touch no run state; callers derive epoch keys before
   the fan-out and apply results after the join.  Each closure is written
   out at its [map_ordered] call, where radio_race checks it. *)
let chunks ~frame_bytes items =
  let n = Array.length items in
  if n = 0 then []
  else begin
    let work = n * (frame_overhead + frame_bytes) in
    let k = max 1 (min (min n (Parallel.budget ())) (work / grain)) in
    let k = max k ((n + max_chunk - 1) / max_chunk) in
    List.init k (fun i -> Array.sub items (i * n / k) (((i + 1) * n / k) - (i * n / k)))
  end

(* A chunk's working state: the cipher scratch (whose plaintext buffer
   every open fills), and the payload buffer a seal is built in and an
   opened body is checked against. *)
type scratch = { cs : Cipher.scratch; pt : Bytes.t }

let scratch sp = { cs = Cipher.scratch (); pt = Bytes.create (16 + sp.payload) }

(* Seal the first [len] bytes of [s.pt] into a fresh data frame. *)
let seal_frame ck s ~epoch ~nonce len =
  let out = Bytes.create (4 + Cipher.frame_size len) in
  set_u32 out 0 epoch;
  Cipher.seal_into ck s.cs ~nonce s.pt ~len out ~pos:4;
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

(* The slotted data payload of message ([chan], [seq]) in [s.pt]. *)
let put_data sp s ~chan ~seq ~epoch ~enq =
  put_words s.pt chan seq epoch enq;
  gen_body_into s.pt ~pos:16 ~payload:sp.payload ~chan ~seq

(* [a] and [b] agree on bytes [i, stop): eight bytes per step, then the
   tail one at a time. *)
let rec same a b i stop =
  if i + 8 <= stop then
    Int64.equal (Bytes.get_int64_le a i) (Bytes.get_int64_le b i) && same a b (i + 8) stop
  else i >= stop || (Char.equal (Bytes.get a i) (Bytes.get b i) && same a b (i + 1) stop)

(* A data payload as the per-frame step parses it from the [len]-byte
   plaintext [p].  [body_ok]: the body is the generated stream's message
   for ([chan], [seq]), checked in place against [s.pt]. *)
type data = { chan : int; seq : int; enq : int; body_ok : bool }

let data sp s p ~len ~chan ~seq =
  let payload = sp.payload in
  let body_ok =
    len = 16 + payload && (gen_body_into s.pt ~pos:16 ~payload ~chan ~seq; same p s.pt 16 len)
  in
  { chan; seq; enq = get_u32 p 12; body_ok }

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

(* The live keys a frame claiming [frame_epoch] opens under in round
   [now]; [None] when its epoch no longer (or does not yet) decode. *)
let key_for sp (cur, prev) ~now ~frame_epoch =
  match epoch_verdict ~epoch_len:sp.epoch_len ~grace:sp.grace ~now ~frame_epoch with
  | Current -> Some cur
  | Previous -> prev
  | Stale -> None

(* What the per-frame step makes of one heard data blob. *)
type 'a heard =
  | Bad  (* not a well-formed frame, MAC failure, or unparsable payload *)
  | Stale_frame  (* sealed under an epoch that no longer decodes: never opened *)
  | Opened of 'a

(* Frame-check, epoch-check, open and [parse] one [(key, blob)] in place:
   the pure per-frame half of every sealed-frame receive. *)
let open_blob sp live ~now ~parse s (k, blob) =
  if String.length blob < 4 || not (Cipher.framed blob ~pos:4) then Bad
  else
    match key_for sp live ~now ~frame_epoch:(read_u32 blob 0) with
    | None -> Stale_frame
    | Some ek -> (
      let len = Cipher.open_into ek.ck s.cs blob ~pos:4 in
      if len < 0 then Bad
      else match parse sp s k (Cipher.plain s.cs) ~len with Some x -> Opened x | None -> Bad)

(* Open every heard [(key, blob)] in round [now] — the per-frame work fans
   out — then count the rejects and hand each authentic payload to
   [deliver] on this domain. *)
let open_heard t ~now ~parse ~deliver frames =
  let live = live_keys t ~now in
  let sp = t.sp in
  chunks ~frame_bytes:(16 + sp.payload) frames
  |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
         let s = scratch sp in
         Array.map (open_blob sp live ~now ~parse s) chunk)
  |> Array.concat
  |> Array.iteri (fun i -> function
       | Bad -> t.st.bad_frames <- t.st.bad_frames + 1
       | Stale_frame -> t.st.stale_epoch <- t.st.stale_epoch + 1
       | Opened x -> deliver (fst frames.(i)) x)

(* The sealed frames in the heard buffer, as (channel heard, blob) in
   buffer order; a decodable non-sealed frame is spoofed traffic and bad
   on sight. *)
let sealed_heard t =
  let frames = ref [] in
  for i = Array.length t.heard - 1 downto 0 do
    match t.heard.(i) with
    | Some (Radio.Frame.Sealed blob) ->
      frames := (heard_chan t.ly (i / t.ly.hops), blob) :: !frames
    | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1
    | None -> ()
  done;
  Array.of_list !frames

let parse_data sp s _ p ~len =
  if len < 16 then None else Some (data sp s p ~len ~chan:(get_u32 p 0) ~seq:(get_u32 p 4))

(* ------------------------------------------------------------------ *)
(* Receive paths, one per frame kind.                                  *)
(* ------------------------------------------------------------------ *)

(* Replay-window judgement of an authentic payload heard in round
   [arrival] by the receiver owning window [w]: [true] when its seq is (or
   already was) delivered there. *)
let judge t w ~arrival d =
  match Window.check w d.seq with
  | Window.Duplicate ->
    t.st.duplicates <- t.st.duplicates + 1;
    true
  | Window.Out_of_window ->
    t.st.out_of_window <- t.st.out_of_window + 1;
    false
  | Window.Fresh ->
    Window.note w d.seq;
    t.st.delivered <- t.st.delivered + 1;
    note_latency t (arrival - d.enq);
    if not d.body_ok then t.st.forged_accepts <- t.st.forged_accepts + 1;
    true

(* A data frame with a valid MAC under the shared epoch key but bound to
   another logical channel is a splice attempt, not a delivery.  A
   duplicate is re-acked: the previous ack was lost. *)
let receive_data t ~arrival =
  open_heard t ~now:arrival ~parse:parse_data
    ~deliver:(fun c d ->
      if d.chan <> c then t.st.bad_frames <- t.st.bad_frames + 1
      else if judge t t.windows.(c) ~arrival d then t.ack_pend_seq.(c) <- d.seq)
    (sealed_heard t)

let receive_acks t ~arrival =
  let live = live_keys t ~now:arrival in
  let acks =
    sealed_heard t
    |> Array.to_list
    |> List.filter_map (fun (c, blob) ->
           match decode_ack blob with
           | None ->
             t.st.bad_frames <- t.st.bad_frames + 1;
             None
           | Some (c', seq, epoch) -> (
             match key_for t.sp live ~now:arrival ~frame_epoch:epoch with
             | None ->
               t.st.stale_epoch <- t.st.stale_epoch + 1;
               None
             | Some ek -> Some (c, c', seq, ek.ak, blob)))
    |> Array.of_list
  in
  let ok =
    chunks ~frame_bytes:16 acks
    |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
           let s = Cipher.scratch () in
           Array.map
             (fun (_, c', seq, ak, blob) ->
               Cipher.mac_ok ak s ~nonce:(nonce_of ~chan:c' ~seq) blob ~off:1 ~len:12 ~tag:13)
             chunk)
    |> Array.concat
  in
  Array.iteri
    (fun i (c, c', seq, _, _) ->
      if not ok.(i) || c' <> c then t.st.bad_frames <- t.st.bad_frames + 1
      else if t.q_len.(c) > 0 && head_seq t c = seq then begin
        q_pop t c;
        t.st.acked <- t.st.acked + 1
      end)
    acks

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

(* An opened piggybacked payload heard on channel [c]: its carried ack,
   and its data unless it is a bare (fixed-size) ack carrier.  Both kinds
   must be bound to [c]: a frame sealed for another channel is a splice,
   and its ack is never applied. *)
let parse_pig sp s c p ~len =
  if len < 16 || get_u32 p 4 <> c then None
  else begin
    let word = get_u32 p 0 in
    let ack = (word land lnot pig_ack_flag) - 1 in
    if word land pig_ack_flag <> 0 then if len <> 16 then None else Some (ack, None)
    else Some (ack, Some (data sp s p ~len ~chan:c ~seq:(get_u32 p 8)))
  end

(* Fold the carried ack into the opposite direction's queue, then (for
   data frames) run the regular delivery judgement and advance the
   cumulative prefix. *)
let receive_pig t ~arrival =
  open_heard t ~now:arrival ~parse:parse_pig
    ~deliver:(fun c (ack, d) ->
      apply_cum_ack t (c lxor 1) ~ack;
      Option.iter
        (fun d ->
          ignore (judge t t.windows.(c) ~arrival d);
          advance_cum t c)
        d)
    (sealed_heard t)

(* Open the distinct sealed blobs heard across all members once each,
   then judge each member's first frame for its channel against its own
   window; every heard copy of a frame sealed for another channel is a
   splice, counted bad.  The head was repeated [reps] times in round
   [arrival] and is now retired — either every receiver has it (a full
   delivery) or the adversary won the round for the missing ones.  The
   table is lookup-only, so the Hashtbl introduces no iteration-order
   nondeterminism. *)
let receive_broadcast t ~arrival =
  let opened : (string, data) Hashtbl.t = Hashtbl.create 64 in
  let distinct =
    Array.to_list (sealed_heard t)
    |> List.map snd |> List.sort_uniq String.compare
    |> List.map (fun b -> (b, b)) |> Array.of_list
  in
  open_heard t ~now:arrival ~parse:parse_data
    ~deliver:(Hashtbl.replace opened) distinct;
  let group = t.ly.per_chan and hops = t.ly.hops in
  for c = 0 to t.sp.logical - 1 do
    let busy = t.q_len.(c) > 0 && t.sent_once.(c) in
    let hits = ref 0 in
    for node = c * group to ((c + 1) * group) - 1 do
      let got = ref None in
      for j = hops - 1 downto 0 do
        match t.heard.((node * hops) + j) with
        | Some (Radio.Frame.Sealed blob) -> (
          match Hashtbl.find_opt opened blob with
          | Some d when d.chan = c -> got := Some d
          | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1 (* sealed for another channel *)
          | None -> ())
        | Some _ | None -> ()
      done;
      match !got with
      | Some d when busy && node mod group <> t.r_sender.(c) ->
        ignore (judge t t.windows.(node) ~arrival d);
        (* the head is in this member's window *)
        if Window.check t.windows.(node) (head_seq t c) = Window.Duplicate then incr hits
      | Some _ | None -> ()
    done;
    if busy then begin
      if !hits = group - 1 then t.st.full_deliveries <- t.st.full_deliveries + 1;
      t.st.messages_done <- t.st.messages_done + 1;
      q_pop t c
    end
  done

(* ------------------------------------------------------------------ *)
(* Plans, one per frame kind.                                          *)
(* ------------------------------------------------------------------ *)

let offer_load t ~e =
  for c = 0 to t.sp.logical - 1 do
    for _ = 1 to t.sp.rate do
      t.st.offered <- t.st.offered + 1;
      if not (q_push t c ~enq:e) then t.st.shed <- t.st.shed + 1
    done
  done

(* Build (or reuse) the sealed head frame of every busy channel: payload,
   seal and framing fan out per frame; the cache is written after the
   join.  A cached frame survives as long as its sealing epoch is still
   decodable at the receiver — which is exactly how the epoch grace
   window gets exercised: a retransmission sealed just before a boundary
   rides the grace period instead of being re-sealed the instant the
   epoch turns. *)
let build_data_frames t ~e =
  let heads = ref [] in
  for c = t.sp.logical - 1 downto 0 do
    if t.q_len.(c) = 0 then begin
      t.built_seq.(c) <- -1;
      t.frames.(c) <- ""
    end
    else begin
      let seq = head_seq t c in
      if not (t.built_seq.(c) = seq && decodable t ~now:e ~frame_epoch:t.built_epoch.(c)) then
        heads := (c, seq, head_enq t c) :: !heads;
      if t.sent_once.(c) then t.st.retransmissions <- t.st.retransmissions + 1;
      t.sent_once.(c) <- true
    end
  done;
  let heads = Array.of_list !heads in
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  let ck = (keys t epoch).ck and sp = t.sp in
  chunks ~frame_bytes:(16 + sp.payload) heads
  |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
         let s = scratch sp in
         Array.map
           (fun (c, seq, enq) ->
             put_data sp s ~chan:c ~seq ~epoch ~enq;
             seal_frame ck s ~epoch ~nonce:(nonce_of ~chan:c ~seq) (16 + sp.payload))
           chunk)
  |> Array.concat
  |> Array.iteri (fun i blob ->
         let c, seq, _ = heads.(i) in
         t.built_seq.(c) <- seq;
         t.built_epoch.(c) <- epoch;
         t.frames.(c) <- blob)

(* Build (or reuse) the pending ack frame for every channel that has
   delivered at least once.  Acks are re-sent every emulated round (the
   slot is reserved anyway), which is what recovers from lost acks. *)
let build_ack_frames t ~e =
  let m = t.sp.logical and epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  let pending = ref [] in
  for c = m - 1 downto 0 do
    let seq = t.ack_pend_seq.(c) in
    if seq < 0 then t.frames.(m + c) <- ""
    else if
      not (t.built_seq.(m + c) = seq && decodable t ~now:e ~frame_epoch:t.built_epoch.(m + c))
    then pending := (c, seq) :: !pending
  done;
  let pending = Array.of_list !pending in
  let ak = (keys t epoch).ak in
  chunks ~frame_bytes:16 pending
  |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
         let s = Cipher.scratch () in
         Array.map
           (fun (c, seq) ->
             let out = Bytes.create 45 in
             Bytes.set out 0 'A';
             set_u32 out 1 c;
             set_u32 out 5 seq;
             set_u32 out 9 epoch;
             Cipher.mac_into ak s ~nonce:(nonce_of ~chan:c ~seq) out ~off:1 ~len:12 out
               ~pos:13;
             (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
             Bytes.unsafe_to_string out)
           chunk)
  |> Array.concat
  |> Array.iteri (fun i blob ->
         let c, seq = pending.(i) in
         t.built_seq.(m + c) <- seq;
         t.built_epoch.(m + c) <- epoch;
         t.frames.(m + c) <- blob)

(* Build this round's frame per channel: the next unsent queue entry while
   the send window has room, the unacknowledged head otherwise, or a bare
   ack carrier when the queue is empty but the partner still has frames in
   flight.  Every frame folds in the current cumulative ack, so frames are
   re-sealed each round under a (channel, round)-keyed nonce. *)
let build_pig_frames t ~e =
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  let frames = ref [] in
  for c = t.sp.logical - 1 downto 0 do
    t.frames.(c) <- "";
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
  let frames = Array.of_list !frames in
  let ck = (keys t epoch).ck and sp = t.sp in
  chunks ~frame_bytes:(16 + sp.payload) frames
  |> Parallel.map_ordered ~jobs:(Parallel.budget ()) (fun chunk ->
         let s = scratch sp in
         Array.map
           (fun (c, ack, k) ->
             match k with
             | Some (seq, enq) ->
               put_words s.pt (ack + 1) c seq enq;
               gen_body_into s.pt ~pos:16 ~payload:sp.payload ~chan:c ~seq;
               seal_frame ck s ~epoch
                 ~nonce:(pig_nonce ~tag:61 ~chan:c ~round:e)
                 (16 + sp.payload)
             | None ->
               put_words s.pt ((ack + 1) lor pig_ack_flag) c epoch e;
               seal_frame ck s ~epoch ~nonce:(pig_nonce ~tag:62 ~chan:c ~round:e) 16)
           chunk)
  |> Array.concat
  |> Array.iteri (fun i blob ->
         let c, _, _ = frames.(i) in
         t.frames.(c) <- blob)

(* PRF-keyed slot rotation: every channel of slot s lands on a distinct
   physical channel, and the whole slot's placement is unpredictable.  The
   offset depends only on the slot, so the PRF is drawn once per (slot,
   phase) and fanned out — with thousands of channels over a few dozen
   slots, drawing it per channel made this loop as expensive as sealing
   the frames it was placing.  The data phases of both ack modes share one
   PRF stream and counters, so a given (channel, emulated round) lands on
   the same physical channel in both whenever the slot counts coincide. *)
let place_slots t ~e ~label =
  let s = t.ly.lanes in
  let off =
    Array.init s (fun i -> Prf.Keyed.below t.hop_prf ~label ~counter:((e * s) + i) t.sp.phys)
  in
  for c = 0 to t.sp.logical - 1 do
    t.chans.(c) <- ((c / s) + off.(c mod s)) mod t.sp.phys
  done

(* Repeat: the head's designated sender, and an independent PRF hop per
   (channel, repetition). *)
let place_broadcast t ~e =
  let m = t.sp.logical and reps = t.ly.hops in
  for c = 0 to m - 1 do
    t.r_sender.(c) <- (if t.q_len.(c) > 0 then head_seq t c mod t.ly.per_chan else -1);
    for j = 0 to reps - 1 do
      t.chans.((c * reps) + j) <-
        Prf.Keyed.below t.hop_prf ~label:"mux-hop-r"
          ~counter:((((e * reps) + j) * m) + c)
          t.sp.phys
    done
  done

(* ------------------------------------------------------------------ *)
(* The step.                                                           *)
(* ------------------------------------------------------------------ *)

(* Phase [phase] of emulated round [e]: judge what the service nodes heard
   in the phase before (of round [e - 1] at phase 0), then — unless [e] is
   past the last round on the air — take the round's offered load (never
   in the flush round) and plan this phase's frames and channels.  The
   step at [e = emulated], phase 0, only judges the final phase. *)
let step t ~e ~phase =
  let phases = Array.length t.ly.phases in
  let arrival = if phase = 0 then e - 1 else e in
  if arrival >= 0 then begin
    (match t.ly.phases.((phase + phases - 1) mod phases) with
    | Data -> receive_data t ~arrival
    | Ack -> receive_acks t ~arrival
    | Pig -> receive_pig t ~arrival
    | Broadcast -> receive_broadcast t ~arrival);
    Array.fill t.heard 0 (Array.length t.heard) None
  end;
  if e < t.ly.emulated then begin
    if phase = 0 && e > 0 && e mod t.sp.epoch_len = 0 then t.st.rekeys <- t.st.rekeys + 1;
    if phase = 0 && e < t.sp.rounds then offer_load t ~e;
    match t.ly.phases.(phase) with
    | Data ->
      build_data_frames t ~e;
      place_slots t ~e ~label:"mux-hop-data"
    | Ack ->
      build_ack_frames t ~e;
      place_slots t ~e ~label:"mux-hop-ack"
    | Pig ->
      build_pig_frames t ~e;
      place_slots t ~e ~label:"mux-hop-data"
    | Broadcast ->
      build_data_frames t ~e;
      place_broadcast t ~e
  end;
  t.stepped <- (e * phases) + phase

(* The member of channel [c] transmitting in [phase]: the Repeat head's
   designated sender (-1 when idle), otherwise member [phase] — the
   sender of a data frame, the receiver of its ack. *)
let sender t c ~phase =
  match t.ly.phases.(phase) with Broadcast -> t.r_sender.(c) | Data | Ack | Pig -> phase

module Step = struct
  type t = state

  let create = create_state
  let step = step

  let planned t ~chan ~phase =
    let member = sender t chan ~phase and frame = t.frames.((phase * t.sp.logical) + chan) in
    if member < 0 || frame = "" then None else Some (member, frame)

  let hear t ~node ~hop frame = t.heard.((node * t.ly.hops) + hop) <- frame
  let stats t = t.st
end

(* ------------------------------------------------------------------ *)
(* The engine edge.                                                    *)
(* ------------------------------------------------------------------ *)

(* Hop [j] of channel [x]'s lane: transmit its planned frame when [sends],
   else listen and store what is heard. *)
let act t ~node ~phase ~sends x j =
  let chan = t.chans.((x * t.ly.hops) + j) in
  if sends then begin
    let frame = t.frames.((phase * t.sp.logical) + x) in
    if String.length frame > 0 then Radio.Engine.transmit ~chan (Radio.Frame.Sealed frame)
    else Radio.Engine.idle ()
  end
  else t.heard.((node * t.ly.hops) + j) <- Radio.Engine.listen ~chan

(* Every service node: per phase, serve its own channel's lane (sending if
   it is the phase's sender) and, duplex, the heard channel's lane, in
   slot order, running the phase's step first if no fiber has yet.  The
   idle rounds between two actions — the rest of a phase, its sync round,
   the next phase's slots before this node's lane — are taken in one
   [idle_for] just before the next action, so a node resumes only to act.
   Lane-0 nodes act in the first slot of every phase, so node 0 still
   resumes right after the sync round and runs the step there.  Nothing is
   allocated per phase, so no per-node garbage stays live while the fibers
   are parked. *)
let service_body t (ctx : Radio.Engine.ctx) =
  let ly = t.ly and node = ctx.Radio.Engine.id in
  let phases = Array.length ly.phases in
  let c = node / ly.per_chan and h = heard_chan ly node in
  let lo = if h mod ly.lanes < c mod ly.lanes then h else c in
  let hi = if lo = c then h else c in
  let owed = ref 0 in
  for e = 0 to ly.emulated - 1 do
    for phase = 0 to phases - 1 do
      let at = ref 0 in
      for k = 0 to (if hi = lo then 0 else 1) do
        let x = if k = 0 then lo else hi in
        Radio.Engine.idle_for (!owed + (x mod ly.lanes * ly.hops) - !at);
        owed := 0;
        if t.stepped < (e * phases) + phase then step t ~e ~phase;
        let sends = x = c && node mod ly.per_chan = sender t c ~phase in
        for j = 0 to ly.hops - 1 do
          act t ~node ~phase ~sends x j
        done;
        at := (x mod ly.lanes * ly.hops) + ly.hops
      done;
      owed := !owed + (ly.lanes * ly.hops) - !at + 1
    done
  done;
  Radio.Engine.idle_for !owed

(* Outsiders hold no key.  They snoop (and provably decode nothing) and
   periodically inject well-formed frames sealed under their own key —
   frames that pass every syntactic check and die on the MAC. *)
let outsider_body t (ctx : Radio.Engine.ctx) =
  let wrong = Cipher.key (Printf.sprintf "outsider-%d" ctx.Radio.Engine.id) in
  let s = scratch t.sp in
  for e = 0 to t.sp.rounds - 1 do
    let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
    for r = 0 to t.rpe - 1 do
      if Prng.Rng.int ctx.Radio.Engine.rng 8 = 0 then begin
        let nonce = Int64.of_int (((e * t.rpe) + r) lxor ctx.Radio.Engine.id) in
        (* Channel 0's body under a random channel's header. *)
        put_data t.sp s ~chan:0 ~seq:e ~epoch ~enq:e;
        set_u32 s.pt 0 (Prng.Rng.int ctx.Radio.Engine.rng t.sp.logical);
        let blob = seal_frame wrong s ~epoch ~nonce (16 + t.sp.payload) in
        Radio.Engine.transmit
          ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys)
          (Radio.Frame.Sealed blob)
      end
      else begin
        match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys) with
        | Some (Radio.Frame.Sealed blob) ->
          t.st.snooped <- t.st.snooped + 1;
          if String.length blob >= 4 && Cipher.open_into wrong s.cs blob ~pos:4 >= 0 then
            t.st.plaintext_leaks <- t.st.plaintext_leaks + 1
        | Some _ | None -> ()
      end
    done
  done

let run spec ~adversary =
  let t = create_state spec in
  let ly = t.ly in
  let cfg =
    Radio.Config.make ~seed:spec.seed
      ~max_rounds:((ly.emulated * t.rpe) + 4)
      ~n:(node_count spec) ~channels:spec.phys ~t:spec.budget ()
  in
  let body (ctx : Radio.Engine.ctx) =
    if ctx.Radio.Engine.id >= spec.logical * ly.per_chan then outsider_body t ctx
    else service_body t ctx
  in
  (* The per-frame crypto of every step fans out over this scope's pool
     (or the enclosing one's: the outermost budget wins).  The last step
     judges what the final phase delivered. *)
  let engine =
    Parallel.run ~jobs:(Parallel.default_jobs ()) (fun () ->
        let engine = Radio.Engine.run_nodes cfg ~adversary body in
        step t ~e:ly.emulated ~phase:0;
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
    "cfg rate=%d queue_cap=%d window=%d epoch_len=%d grace=%d payload=%d outsiders=%d \
     seed=%Ld\n"
    r.spec.rate r.spec.queue_cap r.spec.window r.spec.epoch_len r.spec.grace
    r.spec.payload r.spec.outsiders r.spec.seed;
  Printf.bprintf b
    "load offered=%d delivered=%d acked=%d shed=%d retransmissions=%d duplicates=%d\n"
    s.offered s.delivered s.acked s.shed s.retransmissions s.duplicates;
  Printf.bprintf b
    "guard stale_epoch=%d out_of_window=%d bad_frames=%d forged_accepts=%d leaks=%d \
     snooped=%d rekeys=%d\n"
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
  let u = r.engine.Radio.Engine.channel_usage in
  let d = u.Radio.Transcript.Channel_usage.deliveries in
  let mn = Array.fold_left min max_int d and mx = Array.fold_left max 0 d in
  let total = Array.fold_left ( + ) 0 d in
  let coll = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.collisions in
  let jam = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.jammed in
  Printf.bprintf b "usage phys=%d deliveries=%d min=%d max=%d collisions=%d jammed=%d\n"
    (Array.length d) total mn mx coll jam;
  Buffer.contents b

let output_digest r = Sha256.digest_hex (render_stats r)
