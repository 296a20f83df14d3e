let rounds_consumed ~witnesses ~reps = Array.length witnesses * reps

(* [rank_of] without the per-call ref/closure pair: last matching index
   within the first [len] slots, or -1 when absent (witness sets are
   duplicate-free, so last = first). *)
let rec rank_scan arr id i len acc =
  if i >= len then acc
  (* radio-lint: allow partial-array-unsafe — i < len <= length checked by the caller *)
  else rank_scan arr id (i + 1) len (if Array.unsafe_get arr i = id then i else acc)

type scratch = { chans_buf : int array }

let make_scratch ~reps = { chans_buf = Array.make reps 0 }

(* Per-phase listener step: draw all [reps] random hops first, then
   declare them as one engine listen-series, true when some hop heard
   <true, r>.  The rng draws are a pure per-node stream and the hop
   sequence never depends on what is heard, so drawing up front consumes
   the identical stream prefix and the engine rounds are byte-identical to
   [reps] separate [listen] calls — but the fiber suspends once per phase
   instead of once per round, which is what makes population-scale
   feedback cheap (every non-witness node listens in every feedback
   round).  The hop buffer is the caller's per-node scratch, read by the
   engine only while the series runs. *)
let listen_phase ~rng ~channels ~chans_buf r =
  Prng.Rng.fill_int rng channels chans_buf ~len:(Array.length chans_buf);
  let heard = ref false in
  Radio.Engine.listen_series ~chans:chans_buf ~f:(fun _ frame ->
      match frame with
      | Some (Radio.Frame.Feedback_true r') when r' = r -> heard := true
      | Some _ | None -> ());
  !heard

let validate_witness_size ~channels ~witness_size =
  if witness_size <> channels then
    invalid_arg "Feedback.run: witness prefix must have size C"

let validate_group ~witness_size g =
  if Array.length g < witness_size then
    invalid_arg "Feedback.run: witness sets must have size >= C"

(* Phase r: occupy my rank channel as one of r's witnesses, or listen on
   random channels; true when I then believe channel r succeeded. *)
let phase ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~chans_buf r =
  let reps = Array.length chans_buf in
  validate_group ~witness_size witnesses.(r);
  match rank_scan witnesses.(r) my_id 0 witness_size (-1) with
  | rank when rank >= 0 ->
    let frame = if my_flag then Radio.Frame.Feedback_true r else Radio.Frame.Feedback_false in
    for _ = 1 to reps do
      Radio.Engine.transmit ~chan:rank frame
    done;
    my_flag
  | _ -> listen_phase ~rng ~channels ~chans_buf r

(* Phases run in ascending r and D is consed as the recursion returns, so
   it comes out sorted and nothing but the stack holds it across a phase's
   suspensions.  A heap accumulator would live through those rounds and be
   promoted, once per node per move. *)
let rec phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~chans_buf r =
  if r >= Array.length witnesses then []
  else
    let hit =
      phase ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~chans_buf r
    in
    let rest =
      phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~chans_buf
        (r + 1)
    in
    if hit then r :: rest else rest

let run ~scratch ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag =
  validate_witness_size ~channels ~witness_size;
  let { chans_buf } = scratch in
  phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~chans_buf 0
