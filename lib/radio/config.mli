(** Static parameters of a simulated network (Section 3 of the paper).

    [n] nodes, [channels] = C communication channels, adversary budget [t]
    channels per round (t < C).  [seed] makes the whole run deterministic.
    [max_rounds] bounds runaway protocols; [record_transcript] retains the
    full per-round history for tests and debugging (costs memory). *)

type t = {
  n : int;
  channels : int;
  t : int;
  seed : int64;
  max_rounds : int;
  record_transcript : bool;
}

val default_max_rounds : int
(** Generous ceiling for experiment-scale runs: far above any honest
    completion time, low enough that a divergent protocol still
    terminates.  Shared by the experiment harness and the test suite. *)

val make :
  ?seed:int64 ->
  ?max_rounds:int ->
  ?record_transcript:bool ->
  n:int ->
  channels:int ->
  t:int ->
  unit ->
  t
(** Validates [channels >= 2], [0 <= t < channels], [n >= 2]; raises
    [Invalid_argument] otherwise. *)

val log2 : float -> float
(** [log x /. log 2.0]. *)

val reps : scale:float -> n:int -> int
(** The Theta(log n) repetition rule every randomised phase shares:
    [max 1 (ceil (scale * log2 (max n 4)))].  The caller folds its own
    constants into [scale] — [beta * (t+1)] for a Section 6/7 hop epoch,
    [beta * (C / (C - t))] for Figure 1's feedback, and so on. *)
