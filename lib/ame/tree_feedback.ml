let is_power_of_two x = x > 0 && x land (x - 1) = 0

let levels_of groups =
  let rec go acc x = if x <= 1 then acc else go (acc + 1) (x / 2) in
  go 0 groups

let rounds_consumed ~groups ~reps = ((2 * levels_of groups) + 2) * reps

(* Rank of the pair {lower, lower + 2^l} among level-l pairs: delete bit l
   from [lower]. *)
let pair_index ~level lower =
  ((lower lsr (level + 1)) lsl level) lor (lower land ((1 lsl level) - 1))

let run ~my_id ~rng ~channels ~budget ~reps ~witnesses ~witness_size ~my_flag =
  let groups = Array.length witnesses in
  if not (is_power_of_two groups) then
    invalid_arg "Tree_feedback.run: group count must be a power of two";
  if groups / 2 * budget > channels then
    invalid_arg "Tree_feedback.run: not enough channels for pair blocks";
  if witness_size <> budget + 1 then
    invalid_arg "Tree_feedback.run: witness groups must have t+1 members";
  Array.iter
    (fun g ->
      if Array.length g < witness_size then
        invalid_arg "Tree_feedback.run: witness groups must have t+1 members")
    witnesses;
  (* My group and member index, if I am a witness: the group is the first
     [witness_size] entries of each watcher array (shared prefix, no
     copy). *)
  let my_group = ref None in
  Array.iteri
    (fun c group ->
      for m = 0 to witness_size - 1 do
        if group.(m) = my_id then my_group := Some (c, m)
      done)
    witnesses;
  (* Accumulated knowledge: proposal channel -> success flag. *)
  let known : (int, bool) Hashtbl.t = Hashtbl.create 8 in
  (match !my_group with
   | Some (c, _) -> Hashtbl.replace known c my_flag
   | None -> ());
  let absorb = function
    | Some (Radio.Frame.Feedback_set flags) ->
      List.iter
        (fun (chan, flag) ->
          if chan >= 0 && chan < groups && not (Hashtbl.mem known chan) then
            Hashtbl.replace known chan flag)
        flags
    | Some _ | None -> ()
  in
  let my_set () = Radio.Frame.Feedback_set (Det.bindings known) in
  let group_size = budget + 1 in
  (* Merge levels: two directions each (even sub-phase: lower half sends).
     Non-witnesses idle through the whole merge — one parked suspension
     instead of a round-by-round idle loop. *)
  (match !my_group with
   | None -> Radio.Engine.idle_for (levels_of groups * 2 * reps)
   | Some (c, m) ->
     for level = 0 to levels_of groups - 1 do
       for direction = 0 to 1 do
         for r = 0 to reps - 1 do
           let partner = c lxor (1 lsl level) in
           let lower = min c partner in
           let block = pair_index ~level lower * budget in
           let my_side_sends =
             if c land (1 lsl level) = 0 then direction = 0 else direction = 1
           in
           if my_side_sends then begin
             let idx = (m + r) mod group_size in
             if idx < budget then Radio.Engine.transmit ~chan:(block + idx) (my_set ())
             else Radio.Engine.idle ()
           end
           else absorb (Radio.Engine.listen ~chan:(block + Prng.Rng.int rng budget))
         done
       done
     done);
  (* Dissemination: the witness pool keeps min(C, pool) channels occupied,
     with broadcast duty rotating through the pool so that every witness
     also gets listening rounds — a witness whose merge block was
     concentratedly jammed repairs its own knowledge here, which is what
     keeps the final D agreed upon network-wide. *)
  let pool_rank =
    match !my_group with Some (c, m) -> Some ((c * group_size) + m) | None -> None
  in
  let pool_size = groups * group_size in
  (* Keep at least one group's worth of witnesses listening every round:
     with d_channels = pool_size the rotation would never give a witness a
     listening turn, and a witness whose merge block was concentratedly
     jammed could keep a partial flag set forever.  pool - (t+1) is still
     greater than t, so listeners beat the jam with constant probability. *)
  let d_channels = min channels (pool_size - (budget + 1)) in
  (* Dissemination runs longer than a merge direction: it is the only phase
     every node depends on, and rotation dilutes each witness's airtime. *)
  let d_reps = 2 * reps in
  (match pool_rank with
   | Some rank ->
     for r = 0 to d_reps - 1 do
       if (rank + r) mod pool_size < d_channels then
         Radio.Engine.transmit ~chan:((rank + r) mod pool_size) (my_set ())
       else absorb (Radio.Engine.listen ~chan:(Prng.Rng.int rng d_channels))
     done
   | None ->
     (* Non-witnesses only listen: one engine series of random hops from
        the same per-node stream, absorbing every heard frame in round
        order — byte-identical to the per-round loop. *)
     ignore
       (Radio.Engine.listen_random ~rng ~bound:d_channels ~len:d_reps ~f:(fun _ frame ->
            absorb frame;
            true)));
  List.filter_map (fun (c, flag) -> if flag then Some c else None) (Det.bindings known)
