(** The race-taint check: every definition reachable from the experiment
    runner/registry or from a pool-crossing closure must stay at or below
    [Det_local].  The walk stops at definitions for which [capped] holds
    (files inside the race-taint allowlist — their taint is an audited
    contract). *)

val check : Callgraph.t -> capped:(Summary.def -> bool) -> Report.finding list
