(** Deterministic engine work counters, on a {!Parallel.Tally}: every domain
    counts into a block of its own, and the totals are sums over the
    blocks, so the same runs give the same totals at every [--jobs].

    {!Engine.run_nodes} counts in local ints and adds them here once per run.
    The counters are kept out of {!Transcript.Stats} and out of every
    rendered digest; they measure the engine's work, never steer it. *)

type t = {
  transmits : int;  (** suspensions on {!Engine.transmit} *)
  listens : int;  (** suspensions on {!Engine.listen} *)
  idles : int;  (** suspensions on {!Engine.idle} *)
  sleeps : int;  (** suspensions on {!Engine.idle_for} *)
  series : int;  (** suspensions on {!Engine.listen_random}: one parked series each *)
  resumes : int;  (** continuations resumed with a round's answer *)
  hops : int;  (** listener rounds booked by parked series *)
  wake_pushes : int;  (** fibers put in the wake queue *)
  wake_runs : int;
      (** ascending runs in the wake buckets popped: one per resume pass that
          filled a bucket, fewer where a pass's ids all follow the last pass's *)
  harvested : int;  (** active-list entries scanned by the rounds' harvests *)
  rounds_resolved : int;  (** rounds harvested and resolved one by one *)
  rounds_skipped : int;  (** all-idle rounds fast-forwarded in one step *)
}

val suspensions : t -> int
(** Suspensions of every action kind. *)

val snapshot : unit -> t
(** The totals so far over every domain ({!Parallel.Tally.totals}). *)

val diff : t -> t -> t
(** [diff later earlier], field by field. *)

val render : t -> string
(** One line, no newline: [engine: suspend=... (transmit=... listen=...
    idle=... sleep=... series=...) resume=... hops=... wake=...
    wake_runs=... rounds=... skipped=... harvested=...]. *)

val add_run : t -> unit
(** Adds one run's counts to the calling domain's block; called by the
    engine once per run. *)
