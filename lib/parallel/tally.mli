(** Per-domain work counters: a fixed number of int fields, each domain
    counting into a block of its own ({!Domain.DLS}), so an increment is a
    plain store with no lock or atomic.  A block joins the tally's
    registry when its domain first counts and folds into a retired total
    when the domain exits, so {!totals} still sees the work of pool
    domains that are gone.  Totals are sums, so they do not depend on how
    work was split across domains. *)

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
