type ctx = { id : int; rng : Prng.Rng.t; cfg : Config.t }

(* A finished parked series, read in place.  Hop j's channel is cell
   [hop0 + j] of the core's hop store ([cell] bytes per cell), and what it
   heard is [hist.(row * channels + hop)] in the history ring, [row] being
   [row0 + j] wrapped at [depth].  Both stay put until the fiber's next
   round action, which advances [clock] past [issued]; a read after that
   raises. *)
type series_view = {
  hist : Frame.t option array;
  hops : Bytes.t;
  cell : int;
  hop0 : int;
  row0 : int;
  depth : int;
  channels : int;
  len : int;
  issued : int;
  clock : int ref;
}

(* Hop store cells: 1, 2 or 4 little-endian bytes, the narrowest that holds
   every channel index. *)
let cell_bytes channels = if channels <= 0x100 then 1 else if channels <= 0x10000 then 2 else 4

let[@inline] hop_get hops cell i =
  match cell with
  | 1 -> Bytes.get_uint8 hops i
  | 2 -> Bytes.get_uint16_le hops (2 * i)
  | _ -> Int32.to_int (Bytes.get_int32_le hops (4 * i))

(* [Heard] answers an [EListenRandom] once its last round has resolved. *)
type obs = Received of Frame.t | Nothing | Heard of series_view

(* One effect constructor per action keeps the perform path lean: [EIdle] is
   a constant (no allocation at all), [EListen]/[ETransmit] are a single
   block each — there is no wrapper [action] box on the hot path.
   [EIdleFor] carries the whole idle run in one suspension so the sparse
   engine can park the fiber until its wake round. *)
type _ Effect.t += ETransmit : int * Frame.t -> obs Effect.t
type _ Effect.t += EListen : int -> obs Effect.t
type _ Effect.t += EIdle : obs Effect.t
type _ Effect.t += EIdleFor : int -> obs Effect.t
type _ Effect.t += EListenRandom : Prng.Rng.t * int * int * int -> obs Effect.t
type _ Effect.t += Round : int Effect.t

let transmit ~chan frame =
  match Effect.perform (ETransmit (chan, frame)) with
  | Received _ | Nothing | Heard _ -> ()

let listen ~chan =
  match Effect.perform (EListen chan) with
  | Received frame -> Some frame
  | Nothing | Heard _ -> None

let idle () =
  match Effect.perform EIdle with
  | Received _ | Nothing | Heard _ -> ()

let idle_for k =
  if k > 0 then
    match Effect.perform (EIdleFor k) with
    | Received _ | Nothing | Heard _ -> ()

(* The view of a series without hops: every read is out of range. *)
let empty_view =
  { hist = [||]; hops = Bytes.empty; cell = 1; hop0 = 0; row0 = 0; depth = 1; channels = 1;
    len = 0; issued = 0; clock = ref 0 }

let listen_random ~rng ~bound ~wait ~len =
  if len <= 0 then begin
    idle_for wait;
    empty_view
  end
  else
    match Effect.perform (EListenRandom (rng, bound, max wait 0, len)) with
    | Heard v -> v
    | Received _ | Nothing -> invalid_arg "Engine.listen_random: no view from the core"

let heard v j =
  if !(v.clock) <> v.issued then
    invalid_arg "Engine.heard: series read after a round action";
  if j < 0 || j >= v.len then invalid_arg "Engine.heard: hop outside the series";
  let row = v.row0 + j in
  let row = if row >= v.depth then row - v.depth else row in
  Array.get v.hist ((row * v.channels) + hop_get v.hops v.cell (v.hop0 + j))

(* A series some other core ran round by round, [heard.(j)] being hop j's
   frame: all-zero one-byte hops over a one-channel ring of [len] rows make
   [heard] read [heard.(j)] for hop j. *)
let heard_view ~clock heard =
  let len = Array.length heard in
  Heard
    { hist = heard; hops = Bytes.make len '\000'; cell = 1; hop0 = 0; row0 = 0;
      depth = max len 1; channels = 1; len; issued = !clock; clock }

let check_bound ~channels bound =
  if bound < 1 || bound > channels then
    invalid_arg (Printf.sprintf "Engine.listen_random: bound %d outside 1..%d" bound channels)

let current_round () = Effect.perform Round

exception Aborted

type result = {
  stats : Transcript.Stats.t;
  transcript : Transcript.round_record list;
  completed : bool;
  rounds_used : int;
  channel_usage : Transcript.Channel_usage.t;
}

(* Placeholder occupying [first_frame] slots whose [first_sender] is -1; the
   sentinel is the sender index, so the dummy is never read. *)
let dummy_frame = Frame.Plain { src = -1; dst = -1; body = "" }

(* A wake bucket's ids, ascending: the chain from [head] through [next]
   (-1 ends it).  Parks from one resume pass (which runs in ascending id
   order) chain newest first, descending, so filling a buffer back to front
   leaves one ascending run per pass, oldest pass first.  [chain_fill]
   returns the number of runs (maximal ascending stretches); a bucket of
   more than one run is merged, pass by pass, between two buffers. *)
let rec chain_length next len i =
  if i < 0 then len else chain_length next (len + 1) (Array.get next i)

let rec chain_fill next (a : int array) last p runs i =
  if i < 0 then runs
  else begin
    Array.set a p i;
    let runs = if p < last && i > Array.get a (p + 1) then runs + 1 else runs in
    chain_fill next a last (p - 1) runs (Array.get next i)
  end

(* One past the end of the ascending run that starts at [p] in [a.(0..len-1)]. *)
let rec run_end (a : int array) len p =
  if p + 1 < len && Array.get a p < Array.get a (p + 1) then run_end a len (p + 1) else p + 1

(* The ascending [src.(lo..mid-1)] and [src.(mid..hi-1)] merged into
   [dst.(lo..hi-1)]. *)
let merge_into (src : int array) dst lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = Array.get src !i and y = Array.get src !j in
    if x < y then begin
      Array.set dst !k x;
      incr i
    end
    else begin
      Array.set dst !k y;
      incr j
    end;
    incr k
  done;
  Array.blit src !i dst !k (mid - !i);
  Array.blit src !j dst (!k + mid - !i) (hi - !j)

(* One natural merge pass: each adjacent pair of runs in [src.(lo..len-1)]
   merged into [dst], an odd last run copied.  Returns [runs] plus the runs
   it found in [src]; two or fewer leave [dst] sorted. *)
let rec merge_pass src dst len lo runs =
  if lo >= len then runs
  else
    let mid = run_end src len lo in
    let hi = if mid < len then run_end src len mid else len in
    merge_into src dst lo mid hi;
    merge_pass src dst len hi (if hi > mid then runs + 2 else runs + 1)

(* [src.(0..len-1)] sorted by merge passes back and forth between [src] and
   [dst]; returns the buffer that holds the result. *)
let rec merge_runs src dst len =
  if merge_pass src dst len 0 0 <= 2 then dst else merge_runs dst src len

(* Suspended-continuation slot: a two-constructor variant, so each
   suspension allocates one two-word block beside the runtime continuation
   itself. *)
type kont = NoK | K of (obs, unit) Effect.Deep.continuation

(* State codes for the per-node SoA byte array: 'f' finished, 't' transmit
   declared, 'l' listen declared, 'w' idle (one round) or parked sleeper,
   'p' parked listen-series (see the series rings below). *)

(* The execution core.  Two ideas over a dense loop that scans all n fibers
   every round (the plain reference loop the equivalence tests compare
   against):

   1. Sparse event-driven rounds — the engine keeps a sorted active list
      (double-buffered [cur]/[nxt]) of node ids suspended on this round's
      actions plus a wake queue (hash of round -> ids) for fibers parked by
      [idle_for k]; a round's cost is O(active + touched channels), not
      O(n).  With the null adversary and no recording, runs of rounds with
      an empty active list are fast-forwarded to the next wake round in one
      step.

   2. Struct-of-arrays node state — action codes live in one [Bytes.t],
      channels/frames/continuations in flat arrays indexed by node id, so
      the harvest is a cache-linear scan over active indices instead of
      chasing per-fiber heap records.

   Determinism: fibers are started, resumed, and aborted in strictly
   ascending node-id order, and every run is a pure function of the
   configuration seed. *)
let run_nodes cfg ~adversary body =
  let n = cfg.Config.n in
  let channels = cfg.Config.channels in
  let max_rounds = cfg.Config.max_rounds in
  let round_counter = ref 0 in
  (* SoA node state. *)
  let st = Bytes.make n 'f' in
  let chan_of = Array.make n 0 in
  let frame_of = Array.make n dummy_frame in
  let konts = Array.make n NoK in
  (* Parked listen-series state: the series' first listening round (after
     its [wait]). *)
  let ser_start = Array.make n 0 in
  (* Work counters, added to [Counters] once the run ends. *)
  let n_transmit = ref 0 and n_listen = ref 0 and n_idle = ref 0 and n_sleep = ref 0 in
  let n_series = ref 0 and n_resume = ref 0 and n_hops = ref 0 and n_wake = ref 0 in
  let n_resolved = ref 0 and n_skipped = ref 0 and n_runs = ref 0 and n_harvested = ref 0 in
  let validate_chan chan =
    if chan < 0 || chan >= channels then
      invalid_arg (Printf.sprintf "Engine: action on invalid channel %d" chan)
  in
  let record_wanted =
    cfg.Config.record_transcript || Option.is_some adversary.Adversary.observe
  in
  (* Parked listen-series rings.  A [listen_random] fiber does not ride the
     active list at all: at declare time one [Prng.Rng.tally_int] draws its
     hops and books each as it is drawn, as one listener in
     [series_counts] (a round-ring of per-channel ints, from the first
     round after its [wait] idle rounds on, wrapping at [series_depth]) and
     as one cell of the hop store; delivered frames land in [series_hist]
     (same geometry, shared [Some] per channel per round), and the fiber
     parks in the wake queue until the round after its last listen, where
     it is resumed once with a view of its history rows.
     Rows are addressed by [round mod series_depth]; a row is live for
     exactly one round in each ring (counts: consumed and zeroed at its
     round's resolution; history: written at its round's resolution,
     pre-zeroed when the ring wraps back around), so depth >= the longest
     outstanding [wait + len] suffices.  The completed fiber reads its rows
     in place through a [series_view]: they are next rewritten at a round's
     resolution, and the fiber's own next round action comes first. *)
  let series_depth = ref 0 in
  let series_counts = ref [||] in
  let series_hist : Frame.t option array ref = ref [||] in
  let series_outstanding = ref 0 in
  (* The parked series' hops: node i's row is cells
     [i * hop_width, (i + 1) * hop_width) of [hop_store], written at declare
     time and read back through the view. *)
  let cell = cell_bytes channels in
  let hop_width = ref 0 in
  let hop_store = ref Bytes.empty in
  (* Double-buffered sorted active lists. *)
  let cur = ref (Array.make (max n 1) 0) in
  let n_cur = ref 0 in
  let nxt = ref (Array.make (max n 1) 0) in
  let n_nxt = ref 0 in
  let started = ref false in
  let live = ref 0 in
  (* Wake queue: absolute round -> the newest node id parked until then,
     each parked node linking the one parked before it in [wake_next], so
     a park conses nothing that lives until its wake (put in ascending
     order when popped, see [wake_order]).  A bucket holds each node at
     most once, so it fits the two order buffers the run reuses. *)
  let wake : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let wake_next = Array.make n (-1) in
  let wake_buf = Array.make n 0 and merge_buf = Array.make n 0 in
  let wake_order head =
    let len = chain_length wake_next 0 head in
    let runs = chain_fill wake_next wake_buf (len - 1) (len - 1) 1 head in
    n_runs := !n_runs + runs;
    ((if runs = 1 then wake_buf else merge_runs wake_buf merge_buf len), len)
  in
  let park_until wake_round i =
    incr n_wake;
    wake_next.(i) <-
      (match Hashtbl.find wake wake_round with j -> j | exception Not_found -> -1);
    Hashtbl.replace wake wake_round i
  in
  let push i =
    if !started then begin
      (!nxt).(!n_nxt) <- i;
      incr n_nxt
    end
    else begin
      (!cur).(!n_cur) <- i;
      incr n_cur
    end
  in
  (* Scratch cells carrying the perform's payload from [effc] to the shared
     suspension closures; [running_i] names the fiber currently executing,
     so one hoisted handler serves every fiber. *)
  let running_i = ref 0 in
  let pending_chan = ref 0 in
  let pending_frame = ref dummy_frame in
  let pending_rng = ref (Prng.Rng.create 0L) in
  let pending_wait = ref 0 in
  let pending_len = ref 0 in
  let some_transmit =
    Some
      (fun (k : (obs, unit) Effect.Deep.continuation) ->
        let i = !running_i in
        incr n_transmit;
        Bytes.set st i 't';
        chan_of.(i) <- !pending_chan;
        frame_of.(i) <- !pending_frame;
        konts.(i) <- K k;
        push i)
  in
  let some_listen =
    Some
      (fun (k : (obs, unit) Effect.Deep.continuation) ->
        let i = !running_i in
        incr n_listen;
        Bytes.set st i 'l';
        chan_of.(i) <- !pending_chan;
        konts.(i) <- K k;
        push i)
  in
  let some_idle =
    Some
      (fun (k : (obs, unit) Effect.Deep.continuation) ->
        let i = !running_i in
        incr n_idle;
        Bytes.set st i 'w';
        konts.(i) <- K k;
        push i)
  in
  let some_sleep =
    Some
      (fun (k : (obs, unit) Effect.Deep.continuation) ->
        let i = !running_i in
        incr n_sleep;
        Bytes.set st i 'w';
        konts.(i) <- K k;
        let d = !pending_chan in
        if d = 1 then push i
        else
          (* Wake at the end of round [declare + d - 1]; [round_counter]
             already names the fiber's next round at suspension time. *)
          park_until (!round_counter + d - 1) i)
  in
  (* Regrow the series rings to hold [needed] rounds, re-homing live rows
     under the new modulus.  At regrow time (a declare, so [round_counter]
     is the new series' declare round rc) live count rows sit in
     [rc, rc + old_depth - 1] and live history rows in
     [rc - old_depth, rc - 1]; dead rows are all zero / [None], so copying
     each window wholesale is harmless, and each window's size <= old_depth
     <= new depth keeps the re-homed rows distinct. *)
  let series_grow needed =
    let old_depth = !series_depth in
    let depth = max needed (2 * old_depth) in
    let counts = Array.make (depth * channels) 0 in
    let hist : Frame.t option array = Array.make (depth * channels) None in
    if old_depth > 0 then begin
      let rc = !round_counter in
      for rr = rc to rc + old_depth - 1 do
        Array.blit !series_counts (rr mod old_depth * channels) counts
          (rr mod depth * channels) channels
      done;
      for rr = max 0 (rc - old_depth) to rc - 1 do
        Array.blit !series_hist (rr mod old_depth * channels) hist
          (rr mod depth * channels) channels
      done
    end;
    series_counts := counts;
    series_hist := hist;
    series_depth := depth
  in
  (* Widen the hop store to [needed] cells per node.  Rows keep their
     cells: a parked node's row is live until its view is read, and copying
     the dead rows too is harmless. *)
  let hop_grow needed =
    let old_width = !hop_width in
    let width = max needed (2 * old_width) in
    let store = Bytes.make (n * width * cell) '\000' in
    let old_row = old_width * cell in
    if old_row > 0 then
      for i = 0 to n - 1 do
        Bytes.blit !hop_store (i * old_row) store (i * width * cell) old_row
      done;
    hop_store := store;
    hop_width := width
  in
  let some_listen_park =
    Some
      (fun (k : (obs, unit) Effect.Deep.continuation) ->
        let i = !running_i in
        let len = !pending_len in
        let span = !pending_wait + len in
        if span > !series_depth then series_grow span;
        if len > !hop_width then hop_grow len;
        incr n_series;
        n_hops := !n_hops + len;
        (* Hop 0 listens [wait] rounds after the declare round; hop j books
           into row [(r0 + j) mod depth]. *)
        let r0 = !round_counter + !pending_wait in
        Prng.Rng.tally_int !pending_rng !pending_chan ~counts:!series_counts ~stride:channels
          ~row:(r0 mod !series_depth) ~rows:!series_depth ~store:!hop_store ~cell
          ~at:(i * !hop_width) ~len;
        Bytes.set st i 'p';
        ser_start.(i) <- r0;
        konts.(i) <- K k;
        incr series_outstanding;
        park_until (r0 + len - 1) i)
  in
  let some_round =
    Some
      (fun (k : (int, unit) Effect.Deep.continuation) ->
        Effect.Deep.continue k !round_counter)
  in
  let handler =
    { Effect.Deep.retc =
        (fun () ->
          let i = !running_i in
          Bytes.set st i 'f';
          konts.(i) <- NoK;
          decr live);
      exnc =
        (fun e ->
          let i = !running_i in
          Bytes.set st i 'f';
          konts.(i) <- NoK;
          decr live;
          match e with Aborted -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | ETransmit (chan, frame) ->
            pending_chan := chan;
            pending_frame := frame;
            some_transmit
          | EListen chan ->
            pending_chan := chan;
            some_listen
          | EIdle -> some_idle
          | EIdleFor d ->
            pending_chan := d;
            some_sleep
          | EListenRandom (rng, bound, wait, len) ->
            (* A bad bound raises before any count is booked. *)
            check_bound ~channels bound;
            pending_rng := rng;
            pending_chan := bound;
            pending_wait := wait;
            pending_len := len;
            some_listen_park
          | Round -> some_round
          | _ -> None) }
  in
  let root_rng = Prng.Rng.create cfg.Config.seed in
  for i = 0 to n - 1 do
    let ctx = { id = i; rng = Prng.Rng.split_at root_rng (i + 1); cfg } in
    incr live;
    running_i := i;
    Effect.Deep.match_with body ctx handler
  done;
  started := true;
  let stats = Transcript.Stats.create () in
  let usage = Transcript.Channel_usage.create channels in
  let transcript = ref [] in
  let tx_count = Array.make channels 0 in
  let first_sender = Array.make channels (-1) in
  let first_frame = Array.make channels dummy_frame in
  let listeners_on = Array.make channels 0 in
  let struck = Array.make channels false in
  let spoof_on : Frame.t option array = Array.make channels None in
  let touched = Array.make channels 0 in
  let n_touched = ref 0 in
  let[@inline] touch chan =
    if
      Array.get tx_count chan = 0
      && Array.get listeners_on chan = 0
      && not (Array.get struck chan)
    then begin
      Array.set touched !n_touched chan;
      incr n_touched
    end
  in
  let shared_outcomes = Array.make channels Transcript.Empty in
  (* Per-channel observation cache: one shared [Received] per delivered
     channel per round, handed to every listener at resume time (the frame
     itself was already shared; now the wrapper is too). *)
  let round_obs : obs array = Array.make channels Nothing in
  (* Empty-round fast-forward is sound only when nothing can observe the
     skipped rounds: no recording, and the adversary is the stateless null
     strategy (physical equality — [Adversary.t] is a record of closures). *)
  let fast_forward_ok = (not record_wanted) && adversary == Adversary.null in
  let honest_tx = ref [] in
  let tx_total = ref 0 in
  let strike_count = ref 0 in
  let apply_strike s =
    incr strike_count;
    touch s.Adversary.chan;
    struck.(s.Adversary.chan) <- true;
    spoof_on.(s.Adversary.chan) <- s.Adversary.spoof
  in
  let harvest () =
    let arr = !cur in
    n_harvested := !n_harvested + !n_cur;
    for j = 0 to !n_cur - 1 do
      let i = arr.(j) in
      match Bytes.get st i with
      | 't' ->
        let chan = chan_of.(i) in
        validate_chan chan;
        incr tx_total;
        touch chan;
        let count = Array.get tx_count chan in
        Array.set tx_count chan (count + 1);
        let frame = frame_of.(i) in
        if count = 0 then begin
          Array.set first_sender chan i;
          Array.set first_frame chan frame
        end;
        let payload = Frame.payload_size frame in
        if payload > stats.Transcript.Stats.max_payload then
          stats.Transcript.Stats.max_payload <- payload;
        if record_wanted then honest_tx := (i, chan, frame) :: !honest_tx
      | 'l' ->
        let chan = chan_of.(i) in
        validate_chan chan;
        touch chan;
        Array.set listeners_on chan (Array.get listeners_on chan + 1)
      | _ -> ()
    done
  in
  (* A recorded round's listeners in ascending id: each active one on its
     declared channel, each parked series that has started on its hop for
     this round. *)
  let round_listeners round =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match Bytes.get st i with
      | 'l' -> acc := (i, chan_of.(i)) :: !acc
      | 'p' ->
        let p = round - ser_start.(i) in
        if p >= 0 then acc := (i, hop_get !hop_store cell ((i * !hop_width) + p)) :: !acc
      | _ -> ()
    done;
    !acc
  in
  let[@inline] resume_one i =
    match Bytes.get st i with
    | 'p' -> (
      (* Parked series completes: resume the fiber once with a view of its
         history rows (row [r0] is [len - 1 < depth] rounds old, so every
         row of the run is still live), issued at the round it resumes
         in. *)
      decr series_outstanding;
      match konts.(i) with
      | NoK -> ()
      | K k ->
        konts.(i) <- NoK;
        running_i := i;
        incr n_resume;
        let depth = !series_depth in
        let r0 = ser_start.(i) in
        Effect.Deep.continue k
          (Heard
             { hist = !series_hist; hops = !hop_store; cell; hop0 = i * !hop_width;
               row0 = r0 mod depth; depth; channels; len = !round_counter - r0;
               issued = !round_counter; clock = round_counter }))
    | code -> (
      match konts.(i) with
      | NoK -> ()
      | K k ->
        konts.(i) <- NoK;
        let obs =
          match code with
          | 'l' -> Array.get round_obs chan_of.(i)
          | 't' ->
            (* Drop the frame reference so the engine does not retain every
               node's last payload for the whole run. *)
            frame_of.(i) <- dummy_frame;
            Nothing
          | _ -> Nothing
        in
        running_i := i;
        incr n_resume;
        Effect.Deep.continue k obs)
  in
  (* Resume the active list merged with this round's wakers, in ascending
     node-id order (the order is observable: node bodies may share state). *)
  let resume_round round =
    let wakers, wn =
      match Hashtbl.find_opt wake round with
      | None -> ([||], 0)
      | Some head ->
        Hashtbl.remove wake round;
        wake_order head
    in
    let ca = !cur and cn = !n_cur in
    let ci = ref 0 and wi = ref 0 in
    while !ci < cn || !wi < wn do
      let i =
        if !ci < cn && (!wi >= wn || ca.(!ci) < wakers.(!wi)) then begin
          let v = ca.(!ci) in
          incr ci;
          v
        end
        else begin
          let v = wakers.(!wi) in
          incr wi;
          v
        end
      in
      resume_one i
    done
  in
  let swap_active () =
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp;
    n_cur := !n_nxt;
    n_nxt := 0
  in
  let min_wake () = match Det.keys wake with r :: _ -> r | [] -> -1 in
  while !live > 0 && !round_counter < max_rounds do
    let round = !round_counter in
    if fast_forward_ok && !n_cur = 0 && !series_outstanding = 0 then begin
      (* Every live fiber is parked: skip straight to the earliest wake
         round (each skipped round is an all-idle round — it counts toward
         the stats but resolves nothing). *)
      let m = min_wake () in
      let last = if m < 0 then max_rounds - 1 else min m (max_rounds - 1) in
      stats.Transcript.Stats.rounds <-
        stats.Transcript.Stats.rounds + (last - round + 1);
      n_skipped := !n_skipped + (last - round + 1);
      round_counter := last + 1;
      resume_round last;
      swap_active ()
    end
    else begin
      (* 1. Harvest declared actions over the active list. *)
      honest_tx := [];
      tx_total := 0;
      harvest ();
      (* 2. Adversary commits its strikes without seeing this round's
         choices. *)
      let strikes =
        Adversary.validate ~channels ~budget:cfg.Config.t
          (adversary.Adversary.act ~round)
      in
      strike_count := 0;
      List.iter apply_strike strikes;
      (* Parked-series bookkeeping for this round: pre-zero the history row
         (its previous tenant is [depth] rounds dead) and touch channels
         whose only activity is parked listeners.  [series_base] indexes
         this round's ring rows; -1 when no series is outstanding. *)
      let series_base =
        if !series_outstanding = 0 then -1
        else begin
          let base = round mod !series_depth * channels in
          let counts = !series_counts in
          let hist = !series_hist in
          for chan = 0 to channels - 1 do
            Array.set hist (base + chan) None;
            if
              Array.get counts (base + chan) > 0
              && Array.get tx_count chan = 0
              && Array.get listeners_on chan = 0
              && not (Array.get struck chan)
            then begin
              Array.set touched !n_touched chan;
              incr n_touched
            end
          done;
          base
        end
      in
      (* 3. Resolve the touched channels; accumulators reset inline, but
         the touched list and [round_obs] survive until after the resume
         pass below. *)
      let outcomes =
        if record_wanted then Array.make channels Transcript.Empty else shared_outcomes
      in
      let jammed_this_round = ref false in
      for j = 0 to !n_touched - 1 do
        let chan = Array.get touched j in
        let honest = Array.get tx_count chan in
        let outcome =
          if Array.get struck chan then
            if honest = 0 then
              match Array.get spoof_on chan with
              | Some frame -> Transcript.Delivered { origin = Transcript.Adversarial; frame }
              | None ->
                (* A lone jam: energy but no decodable frame. *)
                Transcript.Collision { transmitters = 1; jammed = true }
            else Transcript.Collision { transmitters = honest + 1; jammed = true }
          else if honest = 0 then Transcript.Empty
          else if honest = 1 then
            Transcript.Delivered
              { origin = Transcript.Honest (Array.get first_sender chan);
                frame = Array.get first_frame chan }
          else Transcript.Collision { transmitters = honest; jammed = false }
        in
        Array.set outcomes chan outcome;
        (* Hearers = scalar listeners on the active list + parked series
           listeners tuned here this round (identical to the count the
           active-list scan produced before series parked). *)
        let hearers =
          Array.get listeners_on chan
          + (if series_base >= 0 then Array.get !series_counts (series_base + chan) else 0)
        in
        Transcript.Channel_usage.note usage chan outcome ~hearers;
        (match outcome with
         | Transcript.Empty -> ()
         | Transcript.Delivered { origin; frame } ->
           Array.set round_obs chan (Received frame);
           if series_base >= 0 then Array.set !series_hist (series_base + chan) (Some frame);
           stats.Transcript.Stats.deliveries <- stats.Transcript.Stats.deliveries + hearers;
           (match origin with
            | Transcript.Adversarial ->
              stats.Transcript.Stats.spoofed_deliveries <-
                stats.Transcript.Stats.spoofed_deliveries + hearers
            | Transcript.Honest _ -> ())
         | Transcript.Collision { jammed; _ } ->
           stats.Transcript.Stats.collisions <- stats.Transcript.Stats.collisions + 1;
           if jammed then jammed_this_round := true);
        if series_base >= 0 then Array.set !series_counts (series_base + chan) 0;
        Array.set tx_count chan 0;
        Array.set first_sender chan (-1);
        Array.set first_frame chan dummy_frame;
        Array.set listeners_on chan 0;
        Array.set struck chan false;
        Array.set spoof_on chan None
      done;
      stats.Transcript.Stats.rounds <- stats.Transcript.Stats.rounds + 1;
      incr n_resolved;
      stats.Transcript.Stats.honest_transmissions <-
        stats.Transcript.Stats.honest_transmissions + !tx_total;
      stats.Transcript.Stats.strikes <- stats.Transcript.Stats.strikes + !strike_count;
      if !jammed_this_round then
        stats.Transcript.Stats.jammed_rounds <- stats.Transcript.Stats.jammed_rounds + 1;
      if record_wanted then begin
        let record =
          { Transcript.round;
            honest_tx = List.rev !honest_tx;
            listeners = round_listeners round;
            strikes = List.map (fun s -> (s.Adversary.chan, s.Adversary.spoof)) strikes;
            outcomes }
        in
        if cfg.Config.record_transcript then transcript := record :: !transcript;
        match adversary.Adversary.observe with Some observe -> observe record | None -> ()
      end;
      incr round_counter;
      (* 4. Resume actives and wakers in node-id order, then clear the
         per-round observation cache. *)
      resume_round round;
      for j = 0 to !n_touched - 1 do
        Array.set round_obs (Array.get touched j) Nothing
      done;
      n_touched := 0;
      swap_active ()
    end
  done;
  let completed = !live = 0 in
  if not completed then
    for i = 0 to n - 1 do
      match konts.(i) with
      | NoK -> ()
      | K k ->
        konts.(i) <- NoK;
        running_i := i;
        (try Effect.Deep.discontinue k Aborted with Aborted -> ())
    done;
  Counters.add_run
    { Counters.transmits = !n_transmit; listens = !n_listen; idles = !n_idle;
      sleeps = !n_sleep; series = !n_series; resumes = !n_resume; hops = !n_hops;
      wake_pushes = !n_wake; wake_runs = !n_runs; harvested = !n_harvested;
      rounds_resolved = !n_resolved; rounds_skipped = !n_skipped };
  { stats; transcript = List.rev !transcript; completed; rounds_used = !round_counter;
    channel_usage = usage }
