(* The radio_lint engine against known-good/known-bad fixtures: each rule
   family has at least one firing fixture and one allowlisted/escaped
   fixture, plus the config parser's grammar and error paths.  Fixture
   sources live under fixtures/lint/ and are never compiled — the linter
   only parses them. *)

let fx name = "fixtures/lint/" ^ name

let rule_cfg ?(enabled = true) ?(allow = []) ?(scope = []) () =
  { Lint.Config.enabled; allow; scope }

(* Base test config: partiality confined to the fixture "protocol" area,
   interface checks confined to the iface fixtures, everything else on
   everywhere. *)
let base_config ?(rules = []) () =
  { Lint.Config.roots = [ "fixtures/lint" ];
    rules =
      rules
      @ [ ("partial-list", rule_cfg ~scope:[ "fixtures/lint" ] ());
          ("partial-option-get", rule_cfg ~scope:[ "fixtures/lint" ] ());
          ("partial-array-unsafe", rule_cfg ~scope:[ "fixtures/lint" ] ());
          ("partial-assert-false", rule_cfg ~scope:[ "fixtures/lint" ] ());
          ("iface-missing-mli", rule_cfg ~scope:[ "fixtures/lint/iface" ] ()) ] }

let run ?rules files =
  Lint.Engine.run ~config:(base_config ?rules ()) (List.map fx files)

let active_rules report =
  List.map (fun (v : Lint.Engine.violation) -> v.rule) report.Lint.Engine.active

let check_no_errors report =
  Alcotest.(check (list (pair string string))) "no engine errors" [] report.Lint.Engine.errors

(* --- config parser -------------------------------------------------- *)

let test_config_fixture () =
  match Lint.Config.load (fx "fixture.toml") with
  | Error e -> Alcotest.failf "fixture.toml should parse: %s" e
  | Ok cfg ->
    Alcotest.(check (list string)) "roots" [ "fixtures/lint" ] cfg.Lint.Config.roots;
    let r = Lint.Config.rule_cfg cfg "nondet-random" in
    Alcotest.(check bool) "enabled" true r.Lint.Config.enabled;
    Alcotest.(check (list string))
      "allow" [ "fixtures/lint/ok_global.ml" ] r.Lint.Config.allow;
    let p = Lint.Config.rule_cfg cfg "partial-list" in
    Alcotest.(check (list string)) "scope" [ "fixtures/lint" ] p.Lint.Config.scope;
    let io = Lint.Config.rule_cfg cfg "io-print" in
    Alcotest.(check bool) "disabled" false io.Lint.Config.enabled;
    (* A rule without a section gets the defaults. *)
    let d = Lint.Config.rule_cfg cfg "global-mutable" in
    Alcotest.(check bool) "default enabled" true d.Lint.Config.enabled

let expect_parse_error name text =
  match Lint.Config.parse_string text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error _ -> ()

let test_config_errors () =
  expect_parse_error "unknown rule" "[rule.no-such-rule]\nenabled = true\n";
  expect_parse_error "unknown section" "[nonsense]\n";
  expect_parse_error "unknown key" "[lint]\nbogus = true\n";
  expect_parse_error "bad value" "[rule.io-print]\nenabled = \"yes\"\n";
  expect_parse_error "unterminated array" "[lint]\nroots = [\"lib\",\n";
  expect_parse_error "bare junk" "just some words\n"

let test_config_repo () =
  (* The checked-in lint.toml must always parse against the current rule
     catalogue — a typo'd id there would otherwise silently disable
     enforcement. *)
  match Lint.Config.load "../lint.toml" with
  | Error e -> Alcotest.failf "repo lint.toml should parse: %s" e
  | Ok cfg ->
    Alcotest.(check (list string)) "roots" [ "lib"; "bin"; "bench" ] cfg.Lint.Config.roots

let test_prefix_semantics () =
  let m = Lint.Config.prefix_matches in
  Alcotest.(check bool) "dir prefix" true (m "lib/prng/rng.ml" "lib/prng");
  Alcotest.(check bool) "trailing slash" true (m "lib/prng/rng.ml" "lib/prng/");
  Alcotest.(check bool) "exact file" true (m "lib/parallel/clock.ml" "lib/parallel/clock.ml");
  Alcotest.(check bool) "no sibling bleed" false (m "lib/prng_x/evil.ml" "lib/prng");
  Alcotest.(check bool) "no partial file" false (m "lib/prng.mlx" "lib/prng.ml");
  Alcotest.(check bool) "empty prefix" false (m "lib/prng/rng.ml" "")

(* --- nondeterminism family ------------------------------------------ *)

let test_nondet_fires () =
  let report = run [ "bad_nondet.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "every nondet escape caught"
    [ "nondet-random"; "nondet-time"; "nondet-unix"; "nondet-hashtbl-order";
      "nondet-hashtbl-order"; "nondet-hashtbl-order"; "nondet-poly-hash";
      "nondet-poly-compare" ]
    (active_rules report)

let test_nondet_escaped () =
  let report = run [ "ok_nondet.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 8 (List.length report.Lint.Engine.suppressed);
  List.iter
    (fun (_, reason) -> Alcotest.(check string) "reason" "escape-comment" reason)
    report.Lint.Engine.suppressed

let test_domain_fires () =
  let report = run [ "bad_domain.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "every raw parallelism primitive caught"
    [ "nondet-domain"; "nondet-domain"; "nondet-domain"; "nondet-domain"; "nondet-domain" ]
    (active_rules report)

let test_domain_escaped () =
  let report = run [ "ok_domain.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 5 (List.length report.Lint.Engine.suppressed)

let test_domain_allowlisted () =
  (* The shape the repo config uses: lib/parallel on the allowlist. *)
  let rules = [ ("nondet-domain", rule_cfg ~allow:[ fx "bad_domain.ml" ] ()) ] in
  let report = run ~rules [ "bad_domain.ml" ] in
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 5 (List.length report.Lint.Engine.suppressed);
  List.iter
    (fun (_, reason) -> Alcotest.(check string) "reason" "allowlist" reason)
    report.Lint.Engine.suppressed

let test_atomic_fires () =
  let report = run [ "bad_atomic.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "every Atomic constructor/mutator caught"
    [ "nondet-atomic"; "nondet-atomic"; "nondet-atomic"; "nondet-atomic"; "nondet-atomic" ]
    (active_rules report)

let test_atomic_escaped () =
  (* Atomic.get is a read and never fires; the three writes are
     escape-commented. *)
  let report = run [ "ok_atomic.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 3 (List.length report.Lint.Engine.suppressed)

let test_atomic_allowlisted () =
  (* The shape the repo config uses: lib/parallel and lib/cache on the
     allowlist. *)
  let rules = [ ("nondet-atomic", rule_cfg ~allow:[ fx "bad_atomic.ml" ] ()) ] in
  let report = run ~rules [ "bad_atomic.ml" ] in
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 5 (List.length report.Lint.Engine.suppressed);
  List.iter
    (fun (_, reason) -> Alcotest.(check string) "reason" "allowlist" reason)
    report.Lint.Engine.suppressed

(* --- partiality family ---------------------------------------------- *)

let test_partial_fires () =
  let report = run [ "bad_partial.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "every partial call caught"
    [ "partial-list"; "partial-list"; "partial-option-get"; "partial-array-unsafe";
      "partial-assert-false" ]
    (active_rules report)

let test_partial_escaped () =
  let report = run [ "ok_partial.ml" ] in
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "all hits suppressed" 5 (List.length report.Lint.Engine.suppressed)

let test_partial_out_of_scope () =
  (* The same file under a scope that excludes it: hits are dropped
     entirely, not merely suppressed. *)
  let scoped =
    List.map
      (fun id -> (id, rule_cfg ~scope:[ "lib" ] ()))
      [ "partial-list"; "partial-option-get"; "partial-array-unsafe"; "partial-assert-false" ]
  in
  let report = run ~rules:scoped [ "bad_partial.ml" ] in
  Alcotest.(check (list string)) "nothing fires" [] (active_rules report);
  Alcotest.(check int) "nothing suppressed" 0 (List.length report.Lint.Engine.suppressed)

(* --- global-state family -------------------------------------------- *)

let test_global_fires () =
  let report = run [ "bad_global.ml" ] in
  check_no_errors report;
  (* Four module-level cells (including the submodule's); the
     function-local ref in [counter] must not fire. *)
  Alcotest.(check (list string)) "module-level state caught"
    [ "global-mutable"; "global-mutable"; "global-mutable"; "global-mutable" ]
    (active_rules report)

let test_global_allowlisted () =
  let rules = [ ("global-mutable", rule_cfg ~allow:[ fx "ok_global.ml" ] ()) ] in
  let report = run ~rules [ "ok_global.ml" ] in
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int)
    "registry hits suppressed" 2
    (List.length report.Lint.Engine.suppressed);
  List.iter
    (fun (_, reason) -> Alcotest.(check string) "reason" "allowlist" reason)
    report.Lint.Engine.suppressed

(* --- io family ------------------------------------------------------ *)

let test_io_fires () =
  let report = run [ "bad_io.ml" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "every print caught"
    [ "io-print"; "io-print"; "io-print"; "io-print" ]
    (active_rules report)

let test_io_escaped () =
  let report = run [ "ok_io.ml" ] in
  (* fprintf to a caller-supplied formatter is fine; the two direct
     prints are escape-commented. *)
  Alcotest.(check (list string)) "no active violations" [] (active_rules report);
  Alcotest.(check int) "prints suppressed" 2 (List.length report.Lint.Engine.suppressed)

let test_io_disabled () =
  let rules = [ ("io-print", rule_cfg ~enabled:false ()) ] in
  let report = run ~rules [ "bad_io.ml" ] in
  Alcotest.(check (list string)) "rule off" [] (active_rules report);
  Alcotest.(check int) "not even suppressed" 0 (List.length report.Lint.Engine.suppressed)

(* --- interface family ----------------------------------------------- *)

let test_iface () =
  let report = run [ "iface" ] in
  check_no_errors report;
  Alcotest.(check (list string)) "orphan flagged once" [ "iface-missing-mli" ]
    (active_rules report);
  match report.Lint.Engine.active with
  | [ v ] -> Alcotest.(check string) "the orphan" (fx "iface/orphan.ml") v.Lint.Engine.file
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

(* --- escape hygiene --------------------------------------------------- *)

let test_stale_escape () =
  let report = run [ "stale_escape.ml" ] in
  check_no_errors report;
  (* The detached escape is named at its own line, beside the print it
     stopped covering; a two-rule escape is stale for the rule it did not
     use; and an escape cannot quiet its own finding. *)
  Alcotest.(check (list (pair string int)))
    "stale escapes and the orphaned print"
    [ ("stale-escape", 4); ("io-print", 6); ("stale-escape", 9); ("stale-escape", 11) ]
    (List.map
       (fun (v : Lint.Engine.violation) -> (v.rule, v.line))
       report.Lint.Engine.active);
  Alcotest.(check int)
    "the used grant suppresses" 1
    (List.length report.Lint.Engine.suppressed);
  let off = [ ("stale-escape", rule_cfg ~enabled:false ()) ] in
  Alcotest.(check (list string))
    "rule off" [ "io-print" ]
    (active_rules (run ~rules:off [ "stale_escape.ml" ]));
  (* Relaxing a rule leaves its escapes alone: they are not stale. *)
  let io_off = [ ("io-print", rule_cfg ~enabled:false ()) ] in
  Alcotest.(check (list string))
    "io-print disabled" []
    (active_rules (run ~rules:io_off [ "ok_io.ml" ]));
  let io_elsewhere = [ ("io-print", rule_cfg ~scope:[ "fixtures/lint/iface" ] ()) ] in
  Alcotest.(check (list string))
    "io-print out of scope" []
    (active_rules (run ~rules:io_elsewhere [ "ok_io.ml" ]))

(* --- engine plumbing ------------------------------------------------ *)

let test_exit_semantics () =
  Alcotest.(check bool) "bad fixture fails" false
    (Lint.Engine.ok (run [ "bad_nondet.ml" ]));
  Alcotest.(check bool) "escaped fixture passes" true
    (Lint.Engine.ok (run [ "ok_nondet.ml" ]))

let test_collect_files () =
  let files = Lint.Engine.collect_files [ fx ""; fx "" ] in
  Alcotest.(check bool) "sorted" true (List.sort compare files = files);
  Alcotest.(check bool) "deduplicated"
    true
    (List.length (List.sort_uniq compare files) = List.length files);
  Alcotest.(check bool) "recurses into iface/" true
    (List.mem (fx "iface/orphan.ml") files);
  Alcotest.(check bool) "only .ml" true
    (List.for_all (fun f -> Filename.check_suffix f ".ml") files)

let () =
  Alcotest.run "lint"
    [ ( "config",
        [ Alcotest.test_case "fixture grammar" `Quick test_config_fixture;
          Alcotest.test_case "rejects bad input" `Quick test_config_errors;
          Alcotest.test_case "repo lint.toml parses" `Quick test_config_repo;
          Alcotest.test_case "prefix semantics" `Quick test_prefix_semantics ] );
      ( "nondet",
        [ Alcotest.test_case "fires" `Quick test_nondet_fires;
          Alcotest.test_case "escape comments" `Quick test_nondet_escaped;
          Alcotest.test_case "domain fires" `Quick test_domain_fires;
          Alcotest.test_case "domain escape comments" `Quick test_domain_escaped;
          Alcotest.test_case "domain allowlist" `Quick test_domain_allowlisted;
          Alcotest.test_case "atomic fires" `Quick test_atomic_fires;
          Alcotest.test_case "atomic escape comments" `Quick test_atomic_escaped;
          Alcotest.test_case "atomic allowlist" `Quick test_atomic_allowlisted ] );
      ( "partiality",
        [ Alcotest.test_case "fires" `Quick test_partial_fires;
          Alcotest.test_case "escape comments" `Quick test_partial_escaped;
          Alcotest.test_case "scope confines" `Quick test_partial_out_of_scope ] );
      ( "global-state",
        [ Alcotest.test_case "fires" `Quick test_global_fires;
          Alcotest.test_case "allowlist" `Quick test_global_allowlisted ] );
      ( "io",
        [ Alcotest.test_case "fires" `Quick test_io_fires;
          Alcotest.test_case "escape comments" `Quick test_io_escaped;
          Alcotest.test_case "disable" `Quick test_io_disabled ] );
      ( "interface",
        [ Alcotest.test_case "missing mli" `Quick test_iface ] );
      ( "escapes",
        [ Alcotest.test_case "stale escape" `Quick test_stale_escape ] );
      ( "engine",
        [ Alcotest.test_case "exit semantics" `Quick test_exit_semantics;
          Alcotest.test_case "file collection" `Quick test_collect_files ] ) ]
