(** Deterministic, pool-safe memoization keyed on canonical digests.

    A ['v t] memoizes a {e pure} function [key -> 'v]: callers must
    guarantee that every computation stored under a key would return the
    same value if re-run.  Under that contract a cache hit is
    indistinguishable from a fresh solve, so memoized paths stay
    byte-identical across [--jobs] counts and across cache on/off — the
    invariant the experiment-determinism gates check.

    Storage is domain-local ([Domain.DLS]): the main domain and every
    [Parallel.Pool] worker hold independent tables, so no locks are taken
    and workers never contend or interleave.  Repeated queries hit within
    the domain that first solved them; a query duplicated across domains
    re-solves at most once per domain.  Hit/miss totals are aggregated
    across domains with [Atomic] counters (observability only). *)

type 'v t

type stats = { hits : int; misses : int }

val create : ?capacity:int -> string -> 'v t
(** [create name] makes a named memo.  [capacity] (default [65536])
    bounds each domain-local table; on overflow the table is dropped
    wholesale — the cheapest policy whose effect on results is provably
    none (only future re-solves change).  Raises [Invalid_argument] on a
    non-positive capacity. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [find_or_compute t ~key f] returns the cached value for [key] in the
    calling domain's table, or runs [f], stores, and returns the result.
    When the global switch is off (see {!with_disabled}) it always runs
    [f] and stores nothing. *)

val name : 'v t -> string

val clear : 'v t -> unit
(** Drops the {e calling domain's} table.  Other domains' tables are
    untouched (they are unreachable by design). *)

val stats : 'v t -> stats
(** Cumulative hit/miss totals across all domains. *)

val with_disabled : (unit -> 'a) -> 'a
(** [with_disabled f] runs [f] with the global switch that every memo
    shares turned off, restoring the previous state afterwards (even on
    exceptions).  Turning it off never changes any memoized result, only
    whether solves repeat.  Intended for tests and A/B measurement. *)

(** Canonical digest keys: append ints, get a 16-byte key string built
    from two independent 63-bit mixing lanes.  Deterministic across runs,
    domains, and hosts; collision odds are negligible (~2^-126 per
    pair). *)
module Key : sig
  type builder

  val create : unit -> builder

  val add_int : builder -> int -> unit

  val finish : builder -> string
end

(** Per-domain work counters: a fixed number of int fields, each domain
    counting into a block of its own ({!Domain.DLS}, as the memo tables),
    so an increment is a plain store with no lock or atomic.  A block
    joins the tally's registry when its domain first counts and folds
    into a retired total when the domain exits, so {!Tally.totals} still
    sees the work of pool domains that are gone.  Totals are sums, so
    they do not depend on how work was split across domains. *)
module Tally : sig
  type t

  val create : int -> t
  (** A tally of that many fields, all zero. *)

  val add : t -> int -> int -> unit
  (** [add t i k] adds [k] to field [i] of the calling domain's block.
      [i] must be a field of [t]: the access is unchecked. *)

  val totals : t -> int array
  (** Field-wise sums over every block, running and retired.  Exact once
      the domains that counted have been joined (or are the caller); a
      block still being written may be read mid-way. *)
end
