(** Parallel-prefix feedback merging for the C >= 2t^2 regime
    (Section 5.5, case 2).

    The C' witness groups (one per proposal channel, t+1 members each) merge
    their per-channel success flags along a hypercube: at level l, groups c
    and [c xor 2^l] exchange accumulated flag sets over a dedicated block of
    t channels, one direction at a time, for [reps] rounds each.  Every
    round, the sending group occupies its whole channel block (t of its t+1
    members broadcast, rotating), so the adversary can jam but never spoof.
    After [log2 C'] levels every witness holds every flag; a final
    dissemination phase (2 * reps rounds) keeps min(C, total witnesses)
    channels occupied with broadcast duty rotating through the whole witness
    pool — so every witness also gets listening rounds to repair knowledge a
    concentrated jammer may have kept out of its merge block — while all
    other nodes listen on random channels and union what they hear.

    Rounds consumed: (2 * log2 C' + 2) * reps = O(log C' * log n), versus
    O(t^2 log n) for sequential feedback — the saving behind Figure 3's
    third row.

    Requires: the number of witness groups is a power of two; each group has
    exactly t+1 members; (C'/2) * t <= C. *)

val rounds_consumed : groups:int -> reps:int -> int

val run :
  my_id:int ->
  rng:Prng.Rng.t ->
  channels:int ->
  budget:int ->
  reps:int ->
  witnesses:int array array ->
  witness_size:int ->
  my_flag:bool ->
  int list
(** Same contract as {!Feedback.run}: call from every node in the same
    round; returns the believed-successful proposal channels, sorted.
    The witness group of channel c is the first [witness_size] entries of
    [witnesses.(c)] (the schedule's watcher-prefix, shared rather than
    copied); [witness_size] must equal [budget + 1].  Non-witnesses park
    through the merge phase with one [idle_for] and listen through
    dissemination as one {!Radio.Engine.listen_random}, whose [f] absorbs
    every heard flag set and never stops the read — same rounds, same rng
    stream, one suspension instead of thousands, and no hop buffer. *)

(** {1 Exposed internals (tested directly)} *)

val pair_index : level:int -> int -> int
(** [pair_index ~level lower] ranks the level-[level] hypercube pair whose
    lower endpoint is [lower] (bit [level] of [lower] must be 0): deletes
    bit [level].  Pair p talks over channel block [p*t .. p*t + t - 1]. *)
