let rounds_consumed ~witnesses ~reps = Array.length witnesses * reps

(* [rank_of] without the per-call ref/closure pair: last matching index
   within the first [len] slots, or -1 when absent (witness sets are
   duplicate-free, so last = first). *)
let rec rank_scan arr id i len acc =
  if i >= len then acc
  (* radio-lint: allow partial-array-unsafe — i < len <= length checked by the caller *)
  else rank_scan arr id (i + 1) len (if Array.unsafe_get arr i = id then i else acc)

(* Phase r's listener read: stop at the first <true, r>, which fixes the
   phase's answer.  It closes over nothing but [r]. *)
let keep_listening r _ = function
  | Some (Radio.Frame.Feedback_true r') when r' = r -> false
  | Some _ | None -> true

let validate_witness_size ~channels ~witness_size =
  if witness_size <> channels then
    invalid_arg "Feedback.run: witness prefix must have size C"

let validate_group ~witness_size g =
  if Array.length g < witness_size then
    invalid_arg "Feedback.run: witness sets must have size >= C"

(* Phase r: occupy my rank channel as one of r's witnesses, or listen on
   random channels; true when I then believe channel r succeeded.  A
   listener's phase is one engine series of [reps] random hops, true when
   [keep_listening] stopped it at a <true, r>.  The engine draws the hops
   from this node's stream, so the rounds and the stream are
   byte-identical to [reps] separate [listen] calls — but the fiber
   suspends once per phase instead of once per round and keeps no hop
   buffer, which is what makes population-scale feedback cheap (every
   non-witness node listens in every feedback round).  A phase whose first
   hop hears <true, r> reads one hop. *)
let phase ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps r =
  validate_group ~witness_size witnesses.(r);
  match rank_scan witnesses.(r) my_id 0 witness_size (-1) with
  | rank when rank >= 0 ->
    let frame = if my_flag then Radio.Frame.Feedback_true r else Radio.Frame.Feedback_false in
    for _ = 1 to reps do
      Radio.Engine.transmit ~chan:rank frame
    done;
    my_flag
  | _ -> Radio.Engine.listen_random ~rng ~bound:channels ~len:reps ~f:(keep_listening r)

(* Phases run in ascending r and D is consed as the recursion returns, so
   it comes out sorted and nothing but the stack holds it across a phase's
   suspensions.  A heap accumulator would live through those rounds and be
   promoted, once per node per move. *)
let rec phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps r =
  if r >= Array.length witnesses then []
  else
    let hit = phase ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps r in
    let rest = phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps (r + 1) in
    if hit then r :: rest else rest

let run ~reps ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag =
  validate_witness_size ~channels ~witness_size;
  phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps 0
