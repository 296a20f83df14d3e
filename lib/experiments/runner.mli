(** The experiment runner: parallel execution with deterministic output and
    a structured-results emitter.

    Determinism contract: rendered output is a pure function of the
    experiment list, [quick], and the seeds baked into each experiment —
    never of [jobs].  Wall-clock timings live only in {!outcome} (and the
    JSON emitted from it), outside the rendered tables. *)

type outcome = {
  experiment : Registry.experiment;
  result : Common.result;
  wall_s : float;  (** wall-clock seconds for this experiment's run *)
}

val run_one : quick:bool -> jobs:int -> Registry.experiment -> outcome
(** Run one experiment, fanning its internal replicate loops out over
    [jobs] domains. *)

val run_many : quick:bool -> jobs:int -> Registry.experiment list -> outcome list
(** Run several experiments.  With two or more, the [jobs] domains are
    spent across experiments (each experiment's inner loops run serially);
    a singleton behaves exactly like {!run_one}.  Outcomes come back in
    request order. *)

val render : Format.formatter -> outcome -> unit
(** Render the outcome's tables/notes; prints nothing about timing. *)

val json_of_outcomes : quick:bool -> jobs:int -> outcome list -> Json.t
(** The [radio-experiments/v1] document: run parameters, per-experiment
    wall-clock and round metrics, tables as data.  Public as a test seam:
    the CLI only ever writes it to a file. *)

val write_json : path:string -> quick:bool -> jobs:int -> outcome list -> unit
