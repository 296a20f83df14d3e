(** The lint engine: parses `.ml` sources with compiler-libs and walks
    the parsetree for rule hits, classifying each against the
    configuration (enabled / scope / allowlist) and
    [(* radio-lint: allow <rule> *)] escape comments on the offending
    line or the line above.  An escape comment that suppresses no
    violation is itself an active [stale-escape] finding at its line (one
    per rule it grants), which escapes cannot quiet.  A grant for a rule
    that is disabled or out of scope for the file is not stale: relaxing
    a rule adds no finding.

    Identifier rules are syntactic: a module alias ([module H = Hashtbl])
    or functor-made table is not seen.  The lint run itself keeps the
    tree free of such aliases. *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;  (** a {!Rules.t} id *)
  message : string;
}

type report = {
  active : violation list;  (** violations that fail the build, sorted *)
  suppressed : (violation * string) list;
      (** hits quieted by an allowlist entry or escape comment, with the
          reason ("allowlist" or "escape-comment") *)
  errors : (string * string) list;  (** unreadable or unparseable files *)
  files : string list;  (** the [.ml] files scanned *)
}

val ok : report -> bool
(** No active violations and no errors. *)

val pp_violation : Format.formatter -> violation -> unit
(** ["file:line:col: [rule] message"]. *)

val collect_files : string list -> string list
(** Recursively gather [.ml] files under the given roots (files are taken
    as-is), skipping hidden and [_build]-style directories; sorted and
    deduplicated. *)

val escapes_on_line : marker:string -> ids:string list -> string -> string list
(** The rule ids an escape comment grants on one source line: every
    [a-z0-9-] token after the first [marker] that is one of [ids], in
    order; free-form text around them is ignored.  [[]] when the line has
    no [marker].  radio_lint scans ["radio-lint: allow"] with the lint
    rule ids, radio_race ["radio-race: allow"] with {!Rules.race_ids}. *)

val run : config:Config.t -> string list -> report
(** Lint every [.ml] under [roots] (directories or single files).  The
    interface rule ([iface-missing-mli]) checks for a sibling [.mli] on
    disk; it can be scoped or allowlisted but not escape-commented. *)
