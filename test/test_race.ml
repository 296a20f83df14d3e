(* Tests for the typed interprocedural race/determinism analyzer.

   The fixture mini-projects under fixtures/race/ are real dune libraries
   linked into this executable, which guarantees their .cmt files exist in
   the build tree before the suite runs.  The driver is exercised
   in-process (cwd is _build/default/test, so the build dir is [.] for the
   fixtures and [..] for the repo itself); the CLI binary is spawned only
   for the exit-code-2 contract. *)

module Config = Lint.Config
module Driver = Analysis.Driver
module Report = Analysis.Report
module Json = Experiments.Json

let config =
  match Config.load "../lint.toml" with
  | Ok c -> c
  | Error e -> Alcotest.failf "lint.toml: %s" e

let fixture_options ?read_source ?(jobs = 1) () =
  { Driver.build_dir = ".";
    source_root = ".";
    roots = [ "fixtures/race" ];
    config;
    jobs;
    read_source
  }

let run_exn options =
  match Driver.run options with
  | Ok o -> o
  | Error e -> Alcotest.failf "driver: %s" e

let finding_file (f : Report.finding) = f.Report.f_loc.Analysis.Names.file

(* Replace the first occurrence of [marker] in [text] so the escape
   comment no longer matches, leaving every other line untouched. *)
let drop_first_marker text =
  let marker = Report.escape_marker in
  let mlen = String.length marker in
  let n = String.length text in
  let rec find i =
    if i + mlen > n then None
    else if String.sub text i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> text
  | Some i ->
    String.concat ""
      [ String.sub text 0 i; String.make mlen 'x'; String.sub text (i + mlen) (n - i - mlen) ]

let classified_for report ~file =
  List.filter
    (fun c -> finding_file c.Report.c_finding = file)
    report.Report.r_findings

let test_fixture_findings () =
  let o = run_exn (fixture_options ()) in
  let report = o.Driver.o_report in
  Alcotest.(check int) "exit code" 1 (Report.exit_code report);
  Alcotest.(check (list string)) "load errors" [] (List.map fst report.Report.r_errors);
  let active = Report.active report in
  let case name = "fixtures/race/" ^ name in
  let active_in name rule =
    List.filter
      (fun f -> f.Report.f_rule = rule && finding_file f = "test/" ^ case name)
      active
  in
  (* true escape: a module-level Hashtbl written from a pool task. *)
  (match active_in "true_escape/race_true_escape.ml" "race-escape" with
  | [ f ] ->
    Alcotest.(check bool) "true_escape crosses a pool entry" true (f.Report.f_entry <> None)
  | fs -> Alcotest.failf "true_escape: %d race-escape findings" (List.length fs));
  (* alias laundering: the write goes through two lets and a helper, and
     the chain must surface that derivation. *)
  (match active_in "alias_escape/race_alias_escape.ml" "race-escape" with
  | [ f ] ->
    Alcotest.(check bool)
      "alias chain reaches through the helper" true
      (List.length f.Report.f_chain >= 2)
  | fs -> Alcotest.failf "alias_escape: %d race-escape findings" (List.length fs));
  (* taint through the call graph: closure -> noisy -> jitter -> Random. *)
  (match active_in "taint_call/race_taint_call.ml" "race-taint" with
  | [ f ] ->
    Alcotest.(check bool)
      "taint chain spans the call graph" true
      (List.length f.Report.f_chain >= 2)
  | fs -> Alcotest.failf "taint_call: %d race-taint findings" (List.length fs));
  Alcotest.(check int) "exactly three active findings" 3 (List.length active);
  (* Domain-local state is the sanctioned pattern and must stay silent. *)
  Alcotest.(check int)
    "dls_ok is clean" 0
    (List.length (classified_for report ~file:("test/" ^ case "dls_ok/race_dls_ok.ml")));
  (* The escape comment downgrades allow_ok to suppressed, not gone. *)
  match classified_for report ~file:("test/" ^ case "allow_ok/race_allow_ok.ml") with
  | [ { Report.c_status = Suppressed reason; _ } ] ->
    Alcotest.(check string) "suppression reason" "escape-comment" reason
  | cs -> Alcotest.failf "allow_ok: %d classified findings" (List.length cs)

let test_allow_comment_flip () =
  (* Deleting the escape comment must flip the suppressed finding back to
     active: the comment is load-bearing, not decorative. *)
  let victim = "test/fixtures/race/allow_ok/race_allow_ok.ml" in
  let read_source file =
    let text = Analysis.Loader.source_text ~source_root:"." file in
    if file = victim then Option.map drop_first_marker text else text
  in
  let o = run_exn (fixture_options ~read_source ()) in
  let report = o.Driver.o_report in
  Alcotest.(check int) "exit flips to 1" 1 (Report.exit_code report);
  match classified_for report ~file:victim with
  | [ { Report.c_status = Active; _ } ] -> ()
  | cs -> Alcotest.failf "allow_ok after comment removal: %d findings" (List.length cs)

let test_multi_rule_escape () =
  (* One escape may name several rules, as in radio_lint: every id after
     the marker is granted, not only the first. *)
  let victim = "test/fixtures/race/allow_ok/race_allow_ok.ml" in
  let escape rules = "(* " ^ Report.escape_marker ^ " " ^ rules ^ " *)" in
  let rewrote = ref false in
  let rewrite line =
    if line = escape "race-escape" then begin
      rewrote := true;
      escape "race-taint race-escape"
    end
    else line
  in
  let read_source file =
    let text = Analysis.Loader.source_text ~source_root:"." file in
    if file = victim then
      Option.map
        (fun t -> String.concat "\n" (List.map rewrite (String.split_on_char '\n' t)))
        text
    else text
  in
  let o = run_exn (fixture_options ~read_source ()) in
  Alcotest.(check bool) "fixture escape rewritten" true !rewrote;
  match classified_for o.Driver.o_report ~file:victim with
  | [ { Report.c_status = Suppressed reason; _ } ] ->
    Alcotest.(check string) "suppression reason" "escape-comment" reason
  | [ { Report.c_status = Active; _ } ] ->
    Alcotest.fail "race-escape, named second, not granted"
  | cs -> Alcotest.failf "allow_ok with a two-rule escape: %d findings" (List.length cs)

let head_options ?read_source () =
  { Driver.build_dir = "..";
    source_root = "..";
    roots = [ "lib"; "bin" ];
    config;
    jobs = 1;
    read_source
  }

let test_head_clean () =
  let o = run_exn (head_options ()) in
  let report = o.Driver.o_report in
  Alcotest.(check bool) "cmts found" true (o.Driver.o_cmts > 0);
  Alcotest.(check (list string)) "load errors" [] (List.map fst report.Report.r_errors);
  Alcotest.(check (list string))
    "no active findings at HEAD" []
    (List.map
       (fun f -> f.Report.f_rule ^ " " ^ finding_file f)
       (Report.active report));
  (* The sanctioned writer in runner.ml must be visible as suppressed:
     proof the analyzer actually looked at the experiments pipeline. *)
  let suppressed =
    List.filter
      (fun c -> c.Report.c_status <> Report.Active)
      (classified_for report ~file:"lib/experiments/runner.ml")
  in
  Alcotest.(check bool) "runner.ml sink is audited" true (List.length suppressed >= 3)

let test_head_allow_flip () =
  (* Acceptance: removing one [radio-race: allow] at HEAD flips the exit
     code to 1. *)
  let victim = "lib/experiments/runner.ml" in
  let read_source file =
    let text = Analysis.Loader.source_text ~source_root:".." file in
    if file = victim then Option.map drop_first_marker text else text
  in
  let o = run_exn (head_options ~read_source ()) in
  let report = o.Driver.o_report in
  Alcotest.(check int) "exit flips to 1" 1 (Report.exit_code report);
  match Report.active report with
  | f :: _ ->
    Alcotest.(check string) "rule" "race-taint" f.Report.f_rule;
    Alcotest.(check string) "file" victim (finding_file f)
  | [] -> Alcotest.fail "expected an active finding after dropping the comment"

(* Field-for-field JSON comparison with a path to the first mismatch, so a
   schema drift names the field instead of dumping two blobs. *)
let rec json_diff path (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Json.Null, Json.Null -> None
  | Json.Bool x, Json.Bool y when x = y -> None
  | Json.Int x, Json.Int y when x = y -> None
  | Json.Float x, Json.Float y when Float.equal x y -> None
  | Json.String x, Json.String y when String.equal x y -> None
  | Json.List xs, Json.List ys ->
    if List.length xs <> List.length ys then
      Some (Printf.sprintf "%s: list length %d <> %d" path (List.length xs) (List.length ys))
    else
      let rec go i = function
        | [], [] -> None
        | x :: xs, y :: ys -> (
          match json_diff (Printf.sprintf "%s[%d]" path i) x y with
          | Some d -> Some d
          | None -> go (i + 1) (xs, ys))
        | _ -> Some (path ^ ": list length mismatch")
      in
      go 0 (xs, ys)
  | Json.Obj xs, Json.Obj ys ->
    if List.map fst xs <> List.map fst ys then
      Some (Printf.sprintf "%s: object keys differ" path)
    else
      List.fold_left2
        (fun acc (k, x) (_, y) ->
          match acc with
          | Some _ -> acc
          | None -> json_diff (path ^ "." ^ k) x y)
        None xs ys
  | _ -> Some (Printf.sprintf "%s: values differ" path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_pinned_quick_json () =
  let o = run_exn (fixture_options ()) in
  let got = Report.to_json o.Driver.o_report in
  let pinned =
    match Json.of_string (read_file "fixtures/race/race-quick.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "pinned race-quick.json: %s" e
  in
  match json_diff "$" pinned got with
  | None -> ()
  | Some d -> Alcotest.failf "report drifted from pinned race-quick.json at %s" d

let test_jobs_parity () =
  let render jobs =
    Json.to_string (Report.to_json (run_exn (fixture_options ~jobs ())).Driver.o_report)
  in
  let j1 = render 1 in
  Alcotest.(check string) "jobs 2 byte-identical" j1 (render 2);
  Alcotest.(check string) "jobs 4 byte-identical" j1 (render 4)

let test_missing_cmts_message () =
  match
    Driver.run
      { Driver.build_dir = "fixtures/race/no-such-build";
        source_root = ".";
        roots = [ "lib" ];
        config;
        jobs = 1;
        read_source = None
      }
  with
  | Ok _ -> Alcotest.fail "expected an error for a cmt-less build dir"
  | Error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      "error names dune build @check" true
      (contains msg "dune build @check")

let test_cli_exit_two () =
  (* The binary must exit 2 (not 1, not a crash) when no cmts exist, and
     point the user at [dune build @check] on stderr. *)
  let dir = Filename.temp_dir "radio_race_test" "" in
  let oc = open_out (Filename.concat dir "lint.toml") in
  output_string oc "[lint]\nroots = [\"src\"]\n";
  close_out oc;
  let err = Filename.concat dir "stderr.txt" in
  let cmd =
    Printf.sprintf "%s --root %s 2>%s"
      (Filename.quote "../bin/radio_race.exe")
      (Filename.quote dir) (Filename.quote err)
  in
  let code = Sys.command cmd in
  Alcotest.(check int) "exit code" 2 code;
  let stderr_text = read_file err in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "stderr names dune build @check" true
    (contains stderr_text "dune build @check")

let () =
  Alcotest.run "race"
    [ ( "fixtures",
        [ Alcotest.test_case "findings and suppression" `Quick test_fixture_findings;
          Alcotest.test_case "allow-comment flip" `Quick test_allow_comment_flip;
          Alcotest.test_case "multi-rule escape" `Quick test_multi_rule_escape;
          Alcotest.test_case "pinned race-quick.json" `Quick test_pinned_quick_json;
          Alcotest.test_case "jobs byte-parity" `Quick test_jobs_parity
        ] );
      ( "head",
        [ Alcotest.test_case "repo is clean" `Quick test_head_clean;
          Alcotest.test_case "allow flip at HEAD" `Quick test_head_allow_flip
        ] );
      ( "cli",
        [ Alcotest.test_case "missing cmts error" `Quick test_missing_cmts_message;
          Alcotest.test_case "missing cmts exits 2" `Quick test_cli_exit_two
        ] )
    ]
