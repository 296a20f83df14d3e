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

(* Generous ceiling for experiment-scale runs: far above any honest
   completion time, low enough that a divergent protocol still terminates.
   Shared by the experiment harness and the test suite. *)
let default_max_rounds = 20_000_000

let make ?(seed = 1L) ?(max_rounds = 2_000_000) ?(record_transcript = false) ~n ~channels ~t
    () =
  if channels < 2 then invalid_arg "Config.make: need at least 2 channels";
  if t < 0 || t >= channels then invalid_arg "Config.make: need 0 <= t < channels";
  if n < 2 then invalid_arg "Config.make: need at least 2 nodes";
  { n; channels; t; seed; max_rounds; record_transcript }

let log2 x = log x /. log 2.0

(* [scale] is the caller's own left-to-right float product (beta * (t+1),
   beta * (t+1)^2, ...), so every repetition count keeps its bits. *)
let reps ~scale ~n = max 1 (int_of_float (ceil (scale *. log2 (float_of_int (max n 4)))))
