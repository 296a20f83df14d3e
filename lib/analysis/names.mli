(** Canonical naming and primitive-classification tables for the typed
    analyzer.

    Typedtree paths spell the same definition two ways — through dune's
    alias module ("Experiments.Common.replicates") or the mangled unit
    name ("Experiments__Common.replicates"); {!normalize} maps both onto
    one canonical component list, which is what makes the call graph
    alias-robust where radio_lint's syntactic rules are not. *)

(** {1 Source positions} *)

type loc = {
  file : string;
  line : int;
  col : int;
}

type span = {
  sp_file : string;
  sp_bline : int;
  sp_bcol : int;
  sp_eline : int;
  sp_ecol : int;
}

val loc_of : file:string -> Location.t -> loc

val span_of : file:string -> Location.t -> span

val null_span : span

val loc_in_span : loc -> span -> bool
(** Lexical containment: does [loc] fall inside the span (same file,
    position within the range)? *)

val pp_loc : Format.formatter -> loc -> unit
(** ["file:line:col"]. *)

(** {1 Canonical paths} *)

val normalize : Path.t -> string list
(** Flatten and split each component on the "__" mangling separator. *)

val key_of_components : string list -> string

val normalize_unit : string -> string
(** Canonical form of a compilation-unit name
    (["Experiments__Common"] -> ["Experiments.Common"]). *)

val strip_stdlib : string list -> string list

(** {1 Mutable allocation} *)

type alloc_kind =
  | Ref
  | Arr
  | Byt
  | Tbl
  | Buf
  | Atom
  | Mrec  (** record with at least one mutable field *)
  | Que
  | Stk
  | Dls  (** [Domain.DLS.new_key] — per-domain, sanctioned *)

val alloc_kind_name : alloc_kind -> string

val mutable_alloc : string list -> alloc_kind option
(** Calls whose result is freshly allocated mutable state. *)

val mutates : string list -> int list option
(** Positions (among the call's unlabelled arguments) of the values a
    primitive mutates, e.g. [Hashtbl.replace] -> [[0]],
    [Bytes.blit] -> [[2]]. *)

(** {1 Determinism taint} *)

type taint =
  | Pure
  | Det_local
  | Tainted
      (** The lattice [Pure < Det_local < Tainted]: [Det_local] owns local
          mutable state but stays deterministic under the ordered-merge
          discipline; [Tainted] observes the clock, OS state, randomness,
          unordered traversal, or raw domain primitives. *)

val taint_max : taint -> taint -> taint

val taint_le : taint -> taint -> bool

val taint_source : string list -> string option
(** [Some description] when referencing the identifier taints the caller. *)

val det_local_source : string list -> bool
(** References that mark a function [Det_local] without tainting it
    (per-domain DLS storage, GC observability counters). *)

(** {1 The pool boundary} *)

val pool_entry : string list -> (string * int) option
(** Recognize a call that submits work to the shared domain pool:
    [(display name, index of the task closure among the call's unlabelled
    arguments)].  Covers [Parallel.map_ordered], [Pool.map_ordered],
    [Common.replicates], and [Common.sweep]. *)
