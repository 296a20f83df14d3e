(** Point-to-point secure channels (Section 8, open question 4).

    Once a pair shares a secret key — from the group-key setup's Part 1, or
    derived from the group key — the two can meet on a pairwise
    pseudo-random hopping pattern that no one else (adversary or other
    nodes) can predict.  One emulated unicast round costs Theta(t log n)
    real rounds, like the broadcast service, but multiple pairs can run
    {e concurrently}: distinct pairs hop independently, colliding with each
    other only when their patterns coincide (probability 1/C per round),
    so aggregate throughput grows with C until self-collisions bite —
    which experiment E14 measures. *)

val make_spec : key:string -> cfg:Radio.Config.t -> Service.link
(** The pair's sealed-hop link under the pairwise secret [key]: the
    broadcast service's {!Service.reps}, with the hopping pattern
    domain-separated from the broadcast service's by the label
    ["unicast-hop"].  Both endpoints meet on {!Service.hop}; the frames
    travel through {!Service.broadcast} and {!Service.recv}. *)

type stream = {
  sender : int;
  receiver : int;
  payloads : string list;  (** one message per emulated round *)
}

type stream_result = {
  stream : stream;
  received : (int * string) list;  (** (emulated round, payload) delivered *)
}

type outcome = {
  engine : Radio.Engine.result;
  results : stream_result list;
  emulated_rounds : int;
  delivered_total : int;
  offered_total : int;
}

val run_streams :
  cfg:Radio.Config.t ->
  keys:(int * int -> string) ->
  streams:stream list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** Runs all streams concurrently; [keys (v, w)] is the pairwise secret of
    the (unordered) pair.  Streams must have node-disjoint endpoints.
    Nodes not in any stream idle. *)
