(** The `radio_lint` rule catalogue: ids, families, and one-line
    summaries.  Detection logic lives in {!Engine}. *)

type family =
  | Nondet  (** randomness, clocks, OS state, hash-order escapes *)
  | Partiality  (** functions that can raise in protocol modules *)
  | Global_state  (** module-level mutable state *)
  | Io  (** printing from library code *)
  | Interface  (** public-surface hygiene (.mli coverage) *)
  | Hygiene  (** the lint's own escape comments *)

type t = {
  id : string;  (** stable rule id, e.g. ["nondet-random"] *)
  family : family;
  summary : string;  (** one-line description used in reports *)
}

val family_name : family -> string

val all : t list

val ids : string list

val race_ids : string list
(** The ids owned by the typed analyzer ([radio_race]):
    ["race-escape"] and ["race-taint"].  They share [lint.toml]
    (scope/allow sections) but have no syntactic detector here. *)

val config_ids : string list
(** Every id the configuration file may mention: {!ids}, then
    {!race_ids}. *)

val find : string -> t option
