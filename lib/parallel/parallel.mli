(** Deterministic fan-out across OCaml 5 domains.

    [map_ordered ~jobs f xs] computes [List.map f xs] with up to [jobs]
    domains and merges results back in submission order, so for pure [f]
    the output is byte-identical to the serial run.

    Parallelism composes vertically through {!run}: [run ~jobs f] installs
    one shared {!Pool.t} for the dynamic extent of [f], and every
    [map_ordered] underneath — experiments fanning out over replicates,
    replicates fanning out over sub-grids, at any depth, from any pool
    domain — submits to that same pool.  The waiting submitter helps
    execute queued tasks instead of blocking a domain, so the [jobs]
    budget is global rather than multiplied per nesting level. *)

module Pool = Pool
module Clock = Clock

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : jobs:int -> (unit -> 'a) -> 'a
(** [run ~jobs f] runs [f] with a shared pool of [jobs] domains (clamped
    to {!default_jobs}) installed for its dynamic extent; [jobs <= 1]
    installs nothing and [f] runs serially.  Nested [run] calls reuse the
    already-installed pool — the outermost budget wins.  The pool is shut
    down when [f] returns or raises. *)

val map_ordered : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Inside a {!run} scope, submits to the shared pool ([jobs] is ignored —
    the global budget governs) and is safe to call from inside another
    [map_ordered] task.  Outside any [run] scope, behaves as before: [jobs]
    is clamped to {!default_jobs}, [jobs <= 1] maps serially on the calling
    domain, otherwise a transient pool is used.  Either way results are in
    submission order and byte-identical to the serial map for pure [f].
    Exceptions from tasks are re-raised at the call site; when several
    tasks fail, the earliest-submitted failure wins. *)
