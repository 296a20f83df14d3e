(** `lint.toml` configuration: which files each rule applies to and where
    hits are pre-approved.  Hand-rolled parser for the TOML subset the
    linter needs ([section] headers, string / bool / string-array values,
    [#] comments); no external dependency. *)

type rule_cfg = {
  enabled : bool;  (** rule runs at all (default [true]) *)
  allow : string list;
      (** path prefixes where hits are reported as suppressed, e.g. the
          PRNG implementation for [nondet-random] *)
  scope : string list;
      (** path prefixes the rule applies to; [[]] means every linted file *)
}

type t = {
  roots : string list;  (** directories walked when the CLI gets no roots *)
  rules : (string * rule_cfg) list;
}

val rule_cfg : t -> string -> rule_cfg
(** Configured entry for a rule id, or the default: enabled, no allow
    list, every file in scope. *)

val path_in : string list -> string -> bool
(** [path_in prefixes path]: some prefix names [path] itself or one of its
    ancestor directories ("lib/prng" holds "lib/prng/rng.ml" but not
    "lib/prng_x/evil.ml"). *)

val parse_string : ?known:string list -> string -> (t, string) result
(** Parse configuration text.  [known] is the set of accepted rule ids
    (defaults to {!Rules.config_ids}, which includes the [radio_race]
    rule ids sharing this file); an unknown id is a parse error so typos
    cannot silently disable a rule. *)

val load : ?known:string list -> string -> (t, string) result
