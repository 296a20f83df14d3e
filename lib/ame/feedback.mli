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

type scratch
(** One node's listener buffer: the [reps] hop channels of a phase.  What
    the hops hear is read straight from the engine (see
    {!Radio.Engine.listen_series}), so no result buffer is kept.  A node
    makes one when its fiber starts and passes it to every {!run} call, so
    per-move feedback allocates no buffers. *)

val make_scratch : reps:int -> scratch
(** [make_scratch ~reps] is a scratch for [reps] listener rounds per
    phase. *)

val run :
  scratch:scratch ->
  my_id:int ->
  rng:Prng.Rng.t ->
  channels:int ->
  witnesses:int array array ->
  witness_size:int ->
  my_flag:bool ->
  int list
(** [run ~scratch ~my_id ~rng ~channels ~witnesses ~witness_size ~my_flag]
    runs one phase of [reps] rounds per witness set, [reps] being the size
    [scratch] was made with: it consumes exactly
    [Array.length witnesses * reps] rounds and returns the set D of channel
    indices believed to have succeeded, sorted.  The witness set W[r] is
    the first [witness_size] entries of [witnesses.(r)] — callers hand the
    schedule's full watcher arrays and a prefix length instead of copied
    sub-arrays.  [witness_size] must equal [channels] (each witness set
    occupies every channel during its phase) and every [witnesses.(r)] must
    have at least that many entries.  [my_flag] is consulted only if
    [my_id] appears in some witness prefix (a node may witness at most one
    channel).  [scratch] belongs to the calling node: it is overwritten,
    and may be reused as soon as [run] returns.

    Listener rounds are declared through {!Radio.Engine.listen_series} —
    one suspension per feedback phase rather than one per round — which is
    observationally identical (the random hop sequence is drawn from the
    same per-node stream in the same order, by {!Prng.Rng.fill_int}) but
    makes population-scale feedback cost one draw, one ring count and one
    ring read per listener-round instead of a fiber resume. *)

val rounds_consumed : witnesses:int array array -> reps:int -> int
