let rounds_consumed ~witnesses ~reps = Array.length witnesses * reps

(* [rank_of] without the per-call ref/closure pair: last matching index
   within the first [len] slots, or -1 when absent (witness sets are
   duplicate-free, so last = first). *)
let rec rank_scan arr id i len acc =
  if i >= len then acc
  (* radio-lint: allow partial-array-unsafe — i < len <= length checked by the caller *)
  else rank_scan arr id (i + 1) len (if Array.unsafe_get arr i = id then i else acc)

(* Phase r's listener read over hops [first + j, first + len) of a series:
   the offset of the first <true, r>, which fixes the phase's answer, or
   [len].  Nothing after that hop is read. *)
let rec first_true_from v r ~first ~len j =
  if j >= len then len
  else
    match Radio.Engine.heard v (first + j) with
    | Some (Radio.Frame.Feedback_true r') when r' = r -> j
    | Some _ | None -> first_true_from v r ~first ~len (j + 1)

let first_true v r ~first ~len = first_true_from v r ~first ~len 0

let validate_witness_size ~channels ~witness_size =
  if witness_size <> channels then
    invalid_arg "Feedback.run: witness prefix must have size C"

let validate_group ~witness_size g =
  if Array.length g < witness_size then
    invalid_arg "Feedback.run: witness sets must have size >= C"

let rank ~my_id ~witnesses ~witness_size r = rank_scan witnesses.(r) my_id 0 witness_size (-1)

(* The first phase at or after [r] in which I witness, or the phase count. *)
let rec next_witness_phase ~my_id ~witnesses ~witness_size r =
  if r >= Array.length witnesses || rank ~my_id ~witnesses ~witness_size r >= 0 then r
  else next_witness_phase ~my_id ~witnesses ~witness_size (r + 1)

(* The phases [first .. p] of a listener series that heard their <true, r>,
   ascending, consed onto [acc]: phase q owns hops
   [(q - first) * reps, (q - first + 1) * reps). *)
let rec heard_phases v ~reps ~first p acc =
  if p < first then acc
  else
    let hit = first_true v p ~first:((p - first) * reps) ~len:reps < reps in
    heard_phases v ~reps ~first (p - 1) (if hit then p :: acc else acc)

(* Phases r.. after [wait] idle rounds.  A witness of phase r occupies its
   rank channel for [reps] rounds; every run of consecutive phases in
   which I do not witness is one engine series of random hops (the first
   one absorbing [wait]), read once it ends.  The engine draws the hops
   from this node's stream, so the rounds and the stream are
   byte-identical to [wait] idles and [reps] [listen] calls per phase —
   but a node that witnesses nothing suspends once per call, and neither
   a hop buffer nor an accumulator lives across the suspension.  D comes
   out sorted: phases are read and run in ascending r. *)
let rec phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps ~wait r =
  if r >= Array.length witnesses then begin
    Radio.Engine.idle_for wait;
    []
  end
  else
    match rank ~my_id ~witnesses ~witness_size r with
    | rank when rank >= 0 ->
      Radio.Engine.idle_for wait;
      let frame =
        if my_flag then Radio.Frame.Feedback_true r else Radio.Frame.Feedback_false
      in
      for _ = 1 to reps do
        Radio.Engine.transmit ~chan:rank frame
      done;
      let rest =
        phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps ~wait:0 (r + 1)
      in
      if my_flag then r :: rest else rest
    | _ ->
      let stop = next_witness_phase ~my_id ~witnesses ~witness_size (r + 1) in
      let v = Radio.Engine.listen_random ~rng ~bound:channels ~wait ~len:((stop - r) * reps) in
      let hits = heard_phases v ~reps ~first:r (stop - 1) [] in
      if stop >= Array.length witnesses then hits
      else
        hits
        @ phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps ~wait:0 stop

let run ~reps ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~wait =
  validate_witness_size ~channels ~witness_size;
  for r = 0 to Array.length witnesses - 1 do
    validate_group ~witness_size witnesses.(r)
  done;
  phases ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag ~reps ~wait 0
