(* The rule catalogue.  Detection logic lives in [Engine]; this module is
   the single source of truth for ids, families, and human summaries, so
   the config parser, the JSON report, and the README table cannot drift
   apart on what rules exist. *)

type family =
  | Nondet
  | Partiality
  | Global_state
  | Io
  | Interface
  | Hygiene

type t = {
  id : string;
  family : family;
  summary : string;
}

let family_name = function
  | Nondet -> "nondeterminism"
  | Partiality -> "partiality"
  | Global_state -> "global-state"
  | Io -> "side-channel-io"
  | Interface -> "public-surface"
  | Hygiene -> "lint-hygiene"

let all =
  [ { id = "nondet-random";
      family = Nondet;
      summary = "Stdlib.Random bypasses the seeded PRNG; thread a Prng.Rng instead" };
    { id = "nondet-time";
      family = Nondet;
      summary = "Sys.time reads the wall clock; simulated logic must count rounds" };
    { id = "nondet-unix";
      family = Nondet;
      summary = "Unix.* reads OS state; only the observability clock may touch it" };
    { id = "nondet-hashtbl-order";
      family = Nondet;
      summary = "Hashtbl iteration order is unspecified; use Det.bindings/fold/iter" };
    { id = "nondet-poly-hash";
      family = Nondet;
      summary = "polymorphic Hashtbl.hash is not a stable fingerprint; serialize instead" };
    { id = "nondet-domain";
      family = Nondet;
      summary =
        "raw Domain/Mutex/Condition primitives schedule nondeterministically; go through \
         Parallel (lib/parallel owns the domain budget and the ordered merge)" };
    { id = "nondet-atomic";
      family = Nondet;
      summary =
        "Atomic cells outside the parallel runtime invite cross-domain coordination that \
         the deterministic merge cannot see; only lib/parallel may own them" };
    { id = "nondet-poly-compare";
      family = Nondet;
      summary =
        "polymorphic compare walks runtime representations (slow, and a trap on functional \
         or abstract values); use Int.compare/String.compare or a typed comparator" };
    { id = "partial-list";
      family = Partiality;
      summary = "List.hd/List.nth can raise; match or use nth_opt with a total fallback" };
    { id = "partial-option-get";
      family = Partiality;
      summary = "Option.get can raise; match on the option" };
    { id = "partial-array-unsafe";
      family = Partiality;
      summary = "Array.unsafe_* skips bounds checks in protocol code" };
    { id = "partial-assert-false";
      family = Partiality;
      summary = "bare 'assert false' in protocol code; make the function total or justify" };
    { id = "global-mutable";
      family = Global_state;
      summary = "module-level ref/Hashtbl.create/Buffer.create is hidden global state" };
    { id = "io-print";
      family = Io;
      summary = "direct stdout/stderr printing in library code; return structured results" };
    { id = "iface-missing-mli";
      family = Interface;
      summary = "library module without an .mli leaves its public surface unchecked" };
    { id = "stale-escape";
      family = Hygiene;
      summary =
        "escape comment that suppresses no violation: a reflow detached it from its \
         target, or the code it covered is gone; move it back or delete it" };
  ]

let ids = List.map (fun r -> r.id) all

let race_ids = [ "race-escape"; "race-taint" ]

let config_ids = ids @ race_ids

let find id = List.find_opt (fun r -> r.id = id) all
