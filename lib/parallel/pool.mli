(** A fixed-size pool of domains fed from a shared work queue, with a
    helping join.

    Workers are plain [Domain.t]s coordinated with a [Mutex]/[Condition]
    pair (no dependencies beyond the stdlib).  Tasks are closures; results
    flow back through the submission site, never through shared state, so a
    pool imposes no ordering of its own — see {!map_ordered} for the
    deterministic merge.

    The join is {e helping}: while a {!map_ordered} caller waits for its
    batch, it pops and runs queued tasks itself — including tasks submitted
    by other callers.  A task running on a pool domain may therefore call
    {!map_ordered} on the same pool: its sub-tasks go through the shared
    queue, the submitting domain keeps executing work instead of blocking,
    and the total domain budget stays global rather than per nesting
    level.  Nested calls cannot deadlock, because a waiter only sleeps when
    the queue is empty, i.e. when every task it still waits on is already
    running on some other domain. *)

type t

val create : domains:int -> t
(** [create ~domains] builds a pool with a total budget of
    [max domains 1] concurrent domains.  Because every {!map_ordered}
    caller helps, the pool spawns [budget - 1] dedicated workers; with
    [domains = 1] no domain is spawned and tasks run on the calling
    domain (still through the queue, so semantics are identical). *)

val size : t -> int
(** Total domain budget: dedicated workers plus the helping caller. *)

val shutdown : t -> unit
(** Drain the queue, join every worker, and make further submission an
    error.  Idempotent.  Every {!create} needs it; [lib/] itself only uses
    {!with_pool}. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val map_ordered : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_ordered pool f xs] applies [f] to every element of [xs], fanning
    the applications out across the pool's domains, and returns the images
    in the order of [xs] — byte-identical to [List.map f xs] whenever [f]
    is pure.  If any application raises, the exception raised for the
    earliest-submitted failing element is re-raised (with its backtrace)
    after all tasks settle.  [map_ordered pool f []] is [[]] and touches no
    worker.  Safe to call from inside a task running on [pool] (see the
    module header); tasks must not share mutable state across elements. *)
