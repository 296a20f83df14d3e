(** Whole-repo linking of unit summaries and the two interprocedural
    fixpoints: writes-effects (what does calling [f] mutate, seen from
    [f]'s frame) and determinism taint ([Pure < Det_local < Tainted]
    propagated backwards over calls, capped at the sanctioned boundary).

    Both fixpoints iterate definitions in sorted-key order and record a
    witness when a fact is first derived, so explanation chains are
    deterministic. *)

type res =
  | RFunc of string
  | RSite of Summary.site_key
  | RUnknown

(** A value a definition mutates, described from its own frame. *)
type target =
  | TParam of int
  | TSite of Summary.site_key
  | TGlobal of string  (** a top-level value we could not resolve to a site *)
  | TOuter of Summary.outer  (** a value captured from an enclosing frame *)

type witness =
  | Direct of Names.loc * string
  | Via of string * Names.loc * target
      (** (callee, call site, the callee-frame target this lifted from) *)

type t

val build : capped:(Summary.def -> bool) -> Summary.t list -> t
(** Link the units and run both fixpoints.  [capped d] holds for
    definitions inside the sanctioned taint boundary (their taint is
    capped to [Det_local] when it flows to callers). *)

val def : t -> string -> Summary.def option

val site : t -> Summary.site_key -> Summary.site option

val defs_in_order : t -> Summary.def list
(** All definitions, sorted by key. *)

val resolve : t -> Summary.origin -> res
(** Chase a value origin to a function or allocation site through
    top-level aliases and initializer returns. *)

val callee_def : t -> string -> Summary.def option
(** The definition a call edge lands on, through aliases. *)

val effects : t -> string -> (target * witness) list
(** The writes-effect of a definition, in first-derived order. *)

val write_chain : t -> string -> target -> (string * Names.loc * string) list
(** Reconstruct the derivation of one effect target as presentation
    steps [(definition, location, action)], ending at the direct write. *)
