(** Rendering and analysis of recorded transcripts.

    When a run is configured with [record_transcript = true], the engine
    keeps every {!Transcript.round_record}; this module turns them into
    human-readable logs and CSV for external analysis — the debugging
    surface for protocol work on top of the simulator.  Per-channel
    utilization needs no transcript: the engine counts it in
    {!Transcript.Channel_usage} on every run. *)

val pp_rounds :
  ?limit:int -> Format.formatter -> Transcript.round_record list -> unit
(** Render the first [limit] (default 50) rounds, each as a compact
    multi-line block: per-channel outcome, honest transmitters, strikes,
    listeners. *)

val to_csv : Transcript.round_record list -> string
(** One row per (round, channel): round, channel, outcome kind, origin,
    honest transmitter count, listener count, frame summary.  Header
    included. *)
