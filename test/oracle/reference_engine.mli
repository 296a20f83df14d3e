(** The dense reference engine: a plain O(n)-per-round loop over the
    {!Radio.Engine} action protocol, the oracle that the equivalence suite
    compares the sparse core against.  Same inputs, same result: stats,
    transcript, channel usage, round count and completion flag. *)

val run :
  Radio.Config.t ->
  adversary:Radio.Adversary.t ->
  (Radio.Engine.ctx -> unit) ->
  Radio.Engine.result
(** Drop-in for {!Radio.Engine.run_nodes}: the same body for every node,
    branching on [ctx.id]. *)
