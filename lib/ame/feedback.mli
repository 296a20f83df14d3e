(** The communication-feedback sub-routine (Figure 1, Section 5.3).

    After a communication round, nodes agree on which channels succeeded.
    For each channel index r in turn, its C witnesses occupy all C channels
    for [reps] rounds: broadcasting <true, r> (each on its own rank channel)
    if their channel delivered, <false> otherwise — so every channel is
    always occupied and the adversary can never spoof feedback, only jam.
    Every other node listens on a uniformly random channel each round and
    records r upon hearing <true, r>; with reps = Theta((C/(C-t)) log n) it
    succeeds with high probability (Lemma 5).

    This function is node-side code: it must be called inside an engine
    fiber, by all nodes in the same round, with identical [witnesses]. *)

val run :
  reps:int ->
  my_id:int ->
  rng:Prng.Rng.t ->
  channels:int ->
  witnesses:int array array ->
  witness_size:int ->
  my_flag:bool ->
  wait:int ->
  int list
(** [run ~reps ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag
    ~wait] idles [wait] rounds, then runs one phase of [reps] rounds per
    witness set: it consumes exactly [wait + Array.length witnesses * reps]
    rounds and returns the set D of channel indices believed to have
    succeeded, sorted.  [wait] folds a caller's idle rounds just before
    feedback (f-AME's off-schedule message round) into the listener
    series.  The witness set W[r] is the first [witness_size] entries of
    [witnesses.(r)] — callers hand the schedule's full watcher arrays and
    a prefix length instead of copied sub-arrays.  [witness_size] must
    equal [channels] (each witness set occupies every channel during its
    phase) and every [witnesses.(r)] must have at least that many entries;
    both are checked before any round.  [my_flag] is consulted only if
    [my_id] appears in some witness prefix (a node may witness at most one
    channel).

    Listener rounds are declared through {!Radio.Engine.listen_random}:
    each run of consecutive phases in which the node does not witness is
    one series, so a node that witnesses nothing — almost every node at
    population scale — suspends once per node-move, its [wait] included.
    That is observationally identical (the engine draws the random hops
    from the same per-node stream in the same order) but makes
    population-scale feedback cost one draw and one ring count per
    listener-round instead of a fiber resume, with no per-node hop buffer.
    The listener reads each phase's hops only up to its first <true, r>:
    one read in a phase whose first hop hits. *)

val rounds_consumed : witnesses:int array array -> reps:int -> int
(** Rounds of a call with [wait = 0]. *)

(** {1 Exposed internals (tested directly)} *)

val first_true : Radio.Engine.series_view -> int -> first:int -> len:int -> int
(** [first_true v r ~first ~len] is phase [r]'s listener read over hops
    [first .. first + len - 1] of a finished series: the offset of the
    first <true, r> among them, or [len] when none is there.  It reads no
    hop after that one. *)
