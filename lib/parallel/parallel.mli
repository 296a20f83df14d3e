(** Deterministic fan-out across OCaml 5 domains.

    [map_ordered ~jobs f xs] computes [List.map f xs] with up to [jobs]
    domains and merges results back in submission order, so for pure [f]
    the output is byte-identical to the serial run.

    Parallelism composes vertically through {!run}: [run ~jobs f] installs
    one scope for the dynamic extent of [f] — a shared {!Pool.t}, or a
    serial scope when the budget is one domain — and every [map_ordered]
    underneath — experiments fanning out over replicates, replicates
    fanning out over sub-grids, the secure-channel service fanning out its
    per-frame crypto, at any depth, from any pool domain — runs in that
    scope.  The waiting submitter helps execute queued tasks instead of
    blocking a domain, so the [jobs] budget is global rather than
    multiplied per nesting level. *)

module Pool = Pool
module Clock = Clock
module Tally = Tally

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : jobs:int -> (unit -> 'a) -> 'a
(** [run ~jobs f] runs [f] with a shared pool of [jobs] domains (clamped
    to {!default_jobs}) installed for its dynamic extent; when the clamped
    budget is one domain ([jobs <= 1], or a one-core host) it installs a
    serial scope instead, and everything under [f] runs on the calling
    domain.  Nested [run] calls reuse the already-installed scope — the
    outermost budget wins, a serial one included.  The pool is shut down
    when [f] returns or raises. *)

val budget : unit -> int
(** The domain budget of the enclosing {!run} scope: the pool's size, or
    1 in a serial scope and outside any scope.  Callers that split work
    into chunks use it to cap the chunk count. *)

val map_ordered : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Inside a {!run} scope, submits to the shared pool ([jobs] is ignored —
    the global budget governs), or maps serially in a serial scope, and is
    safe to call from inside another [map_ordered] task.  Outside any
    scope, behaves as [run ~jobs (fun () -> map_ordered ~jobs f xs)] with
    [jobs] capped at the list length: a transient scope whose pool (if
    any) nested calls in the tasks reuse.  Either way results are in
    submission order and byte-identical to the serial map for pure [f].
    Exceptions from tasks are re-raised at the call site; when several
    tasks fail, the earliest-submitted failure wins. *)
