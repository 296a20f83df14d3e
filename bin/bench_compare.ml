(* Compare two radio-bench/v1 documents (see bench/main.ml --bench-json).

   Usage: bench_compare [OPTIONS] BASELINE.json CURRENT.json

   Options (flags and positionals may be interleaved):
     --require-bench PREFIXES  comma-separated name prefixes; each must match
                               at least one micro row of CURRENT (coverage
                               gate: a family silently dropped from the suite
                               exits nonzero)
     --append-history PATH     append a dated radio-bench-history/v1 entry
                               summarizing CURRENT (and its speedup vs
                               BASELINE) to the JSON history file at PATH,
                               creating it if absent
     --history-trend PATH      compare CURRENT micro timings against the most
                               recent entry of the history file at PATH and
                               print a TREND row for every benchmark slower
                               by more than 25%% (informational only: like
                               every timing signal, it never changes the
                               exit status; a missing or empty history file
                               is skipped with a note)

   Determinism fields (per-row total_rounds and output_sha256, and
   sha-consistency across any --jobs-sweep rows) are a hard gate: any
   drift, a row that disappeared, or a row missing either field exits
   nonzero.  Timing fields (ns/run, ops/sec, allocation words) are
   environment-dependent and only reported, never gated — CI machines and
   laptops disagree on speed, but never on simulated bytes. *)

module Json = Experiments.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let load ~role path =
  (* A missing file gets its own message: "No such file or directory" buried
     in a Sys_error reads like an I/O fault, but the usual cause is a bench
     run that never produced the document this role expects. *)
  if not (Sys.file_exists path) then
    die
      "%s file %s does not exist (produce it with: dune exec bench/main.exe -- --bench-json \
       %s)"
      role path path;
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> die "cannot read %s file: %s" role msg
  in
  match Json.of_string contents with
  | Ok doc -> doc
  | Error msg -> die "%s: malformed JSON: %s" path msg

let check_schema path doc =
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some "radio-bench/v1" -> ()
  | Some other -> die "%s: unsupported schema %S (want radio-bench/v1)" path other
  | None -> die "%s: missing schema field" path

let rows key doc =
  match Option.bind (Json.member key doc) Json.to_list with
  | Some items -> items
  | None -> []

let str_field name row = Option.bind (Json.member name row) Json.to_string_opt
let int_field name row = Option.bind (Json.member name row) Json.to_int_opt
let float_field name row = Option.bind (Json.member name row) Json.to_float_opt

let assoc_rows ~key_field items =
  List.filter_map
    (fun row -> Option.map (fun k -> (k, row)) (str_field key_field row))
    items

(* -- benchmark history (radio-bench-history/v1) --

   A history file is an append-only JSON document:
     { "schema": "radio-bench-history/v1", "entries": [ ... ] }
   Each entry snapshots one bench_compare run: a UTC timestamp, the two
   document paths, whether the determinism gate passed, and per-micro
   timing/allocation medians from CURRENT with the speedup against
   BASELINE.  Timing history is observability data, never a gate — the
   trend across entries is what a human reads (see README). *)

let history_schema = "radio-bench-history/v1"

let load_history path =
  if not (Sys.file_exists path) then []
  else begin
    let doc = load ~role:"history" path in
    (match Option.bind (Json.member "schema" doc) Json.to_string_opt with
     | Some s when s = history_schema -> ()
     | Some other ->
       die "%s: unsupported history schema %S (want %s)" path other history_schema
     | None -> die "%s: missing schema field" path);
    match Option.bind (Json.member "entries" doc) Json.to_list with
    | Some entries -> entries
    | None -> []
  end

let history_entry ~baseline_path ~current_path ~current ~base_micro ~cur_micro
    ~determinism_ok =
  let micro =
    List.map
      (fun (name, cur_row) ->
        let speedup =
          match
            ( Option.bind (List.assoc_opt name base_micro) (float_field "ns_per_run"),
              float_field "ns_per_run" cur_row )
          with
          | Some b, Some c when b > 0.0 && c > 0.0 -> Json.Float (b /. c)
          | _ -> Json.Null
        in
        Json.Obj
          [ ("name", Json.String name);
            ( "ns_per_run",
              match float_field "ns_per_run" cur_row with
              | Some v -> Json.Float v
              | None -> Json.Null );
            ( "minor_words_per_run",
              match float_field "minor_words_per_run" cur_row with
              | Some v -> Json.Float v
              | None -> Json.Null );
            ("speedup_vs_baseline", speedup) ])
      cur_micro
  in
  Json.Obj
    [ ("recorded_utc", Json.String (Parallel.Clock.utc_iso8601 ()));
      ("baseline", Json.String baseline_path);
      ("current", Json.String current_path);
      ( "quick",
        match Option.bind (Json.member "quick" current) Json.to_bool_opt with
        | Some b -> Json.Bool b
        | None -> Json.Null );
      ("determinism_ok", Json.Bool determinism_ok);
      ("micro", Json.List micro) ]

let append_history ~path entry =
  let entries = load_history path @ [ entry ] in
  let doc =
    Json.Obj [ ("schema", Json.String history_schema); ("entries", Json.List entries) ]
  in
  let oc = try open_out path with Sys_error msg -> die "cannot write %s: %s" path msg in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "history: appended entry %d to %s\n" (List.length entries) path

(* -- history trend (informational): CURRENT vs the last history entry --

   Nightly legs append an entry per run, so "the last entry" is yesterday's
   measurement on the same class of machine — a much fairer timing referent
   than a baseline checked in from a developer laptop.  Regressions beyond
   the fixed 25% threshold are printed and nothing more: day-to-day CI
   noise makes timing a trend to read, not a gate to trip. *)

let history_trend_threshold_pct = 25.0

let report_history_trend ~path ~cur_micro =
  match load_history path with
  | [] -> Printf.printf "trend: no history entries at %s yet, skipping\n" path
  | entries ->
    let last = List.nth entries (List.length entries - 1) in
    let last_micro =
      match Option.bind (Json.member "micro" last) Json.to_list with
      | Some rows -> assoc_rows ~key_field:"name" rows
      | None -> []
    in
    let when_ =
      Option.value ~default:"(undated)"
        (Option.bind (Json.member "recorded_utc" last) Json.to_string_opt)
    in
    let regressions =
      List.filter_map
        (fun (name, cur_row) ->
          match
            ( Option.bind (List.assoc_opt name last_micro) (float_field "ns_per_run"),
              float_field "ns_per_run" cur_row )
          with
          | Some prev, Some cur
            when prev > 0.0 && cur > 0.0
                 && (cur -. prev) /. prev *. 100.0 > history_trend_threshold_pct ->
            Some (name, (cur -. prev) /. prev *. 100.0)
          | _ -> None)
        cur_micro
    in
    (match regressions with
     | [] ->
       Printf.printf
         "trend: all micro-benchmarks within %.0f%% of the last history entry (%s)\n"
         history_trend_threshold_pct when_
     | rs ->
       Printf.printf
         "trend: %d micro-benchmark(s) slower than the last history entry (%s) by more \
          than %.0f%%:\n"
         (List.length rs) when_ history_trend_threshold_pct;
       List.iter (fun (name, d) -> Printf.printf "  TREND %-36s +%.1f%%\n" name d) rs;
       print_endline "  (informational only: timing never affects the exit status)")

type cli = {
  require_bench : string list;
  history : string option;
  history_trend : string option;
  paths : string list;
}

let () =
  let usage () =
    prerr_endline
      "usage: bench_compare [--require-bench PREFIXES] [--append-history PATH] \
       [--history-trend PATH] BASELINE.json CURRENT.json";
    exit 2
  in
  let rec parse acc = function
    | [] -> acc
    | "--require-bench" :: spec :: rest -> (
      let prefixes =
        List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' spec))
      in
      match prefixes with
      | [] -> usage ()
      | _ -> parse { acc with require_bench = acc.require_bench @ prefixes } rest)
    | "--append-history" :: path :: rest -> parse { acc with history = Some path } rest
    | "--history-trend" :: path :: rest -> parse { acc with history_trend = Some path } rest
    | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" -> usage ()
    | path :: rest -> parse { acc with paths = acc.paths @ [ path ] } rest
  in
  let cli =
    parse
      { require_bench = []; history = None; history_trend = None; paths = [] }
      (List.tl (Array.to_list Sys.argv))
  in
  let baseline_path, current_path =
    match cli.paths with [ b; c ] -> (b, c) | _ -> usage ()
  in
  let baseline = load ~role:"baseline" baseline_path
  and current = load ~role:"current" current_path in
  check_schema baseline_path baseline;
  check_schema current_path current;
  (* -- determinism gate -- *)
  let base_det = assoc_rows ~key_field:"id" (rows "determinism" baseline) in
  let cur_det = assoc_rows ~key_field:"id" (rows "determinism" current) in
  let drift = ref 0 in
  let complain fmt =
    Printf.ksprintf
      (fun msg ->
        incr drift;
        Printf.printf "DRIFT %s\n" msg)
      fmt
  in
  List.iter
    (fun (id, base_row) ->
      match List.assoc_opt id cur_det with
      | None -> complain "%s: row missing from %s" id current_path
      | Some cur_row ->
        List.iter
          (fun (field, get) ->
            match (get base_row, get cur_row) with
            | Some b, Some c -> if b <> c then complain "%s: %s %s -> %s" id field b c
            | None, _ -> complain "%s: %s missing from %s" id field baseline_path
            | _, None -> complain "%s: %s missing from %s" id field current_path)
          [ ( "total_rounds",
              fun row -> Option.map string_of_int (int_field "total_rounds" row) );
            ("output_sha256", str_field "output_sha256") ])
    base_det;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id base_det) then
        Printf.printf "note: %s present only in %s (new experiment?)\n" id current_path)
    cur_det;
  (* -- jobs-sweep consistency gate: every sweep row of a document must carry
     the same output hash, or the runner was nondeterministic under that
     worker count.  Wall-clock differences across rows are expected. -- *)
  let check_sweep path doc =
    let shas =
      List.filter_map (fun row -> str_field "output_sha256" row) (rows "jobs_sweep" doc)
    in
    match shas with
    | [] | [ _ ] -> ()
    | first :: rest ->
      if not (List.for_all (String.equal first) rest) then
        complain "%s: jobs_sweep output_sha256 differs across worker counts" path
  in
  check_sweep baseline_path baseline;
  check_sweep current_path current;
  (* -- timing report (informational only) -- *)
  let base_micro = assoc_rows ~key_field:"name" (rows "micro" baseline) in
  let cur_micro = assoc_rows ~key_field:"name" (rows "micro" current) in
  if base_micro <> [] && cur_micro <> [] then begin
    Printf.printf "\n%-32s %12s %12s %8s\n" "micro-benchmark" "base ns" "cur ns" "speedup";
    List.iter
      (fun (name, base_row) ->
        match List.assoc_opt name cur_micro with
        | None -> Printf.printf "%-32s %12s %12s %8s\n" name "-" "-" "gone"
        | Some cur_row -> (
          match (float_field "ns_per_run" base_row, float_field "ns_per_run" cur_row) with
          | Some b, Some c when c > 0.0 ->
            Printf.printf "%-32s %12.1f %12.1f %7.2fx\n" name b c (b /. c)
          | _ -> Printf.printf "%-32s %12s %12s %8s\n" name "?" "?" "?"))
      base_micro
  end;
  (* -- coverage gate: every --require-bench prefix must match a micro row of
     CURRENT.  This catches a benchmark family silently dropped from the
     suite, which a pure diff-against-baseline would report as "gone" without
     failing. -- *)
  let missing_families =
    List.filter
      (fun prefix ->
        not (List.exists (fun (name, _) -> String.starts_with ~prefix name) cur_micro))
      cli.require_bench
  in
  List.iter
    (fun p ->
      Printf.printf "MISSING no micro-benchmark in %s matches prefix %S\n" current_path p)
    missing_families;
  (* The trend runs before any --append-history write, so it always compares
     against the previous run's entry, never the one being recorded now. *)
  (match cli.history_trend with
   | Some path -> report_history_trend ~path ~cur_micro
   | None -> ());
  let determinism_ok = !drift = 0 in
  (match cli.history with
   | Some path ->
     append_history ~path
       (history_entry ~baseline_path ~current_path ~current ~base_micro ~cur_micro
          ~determinism_ok)
   | None -> ());
  if not determinism_ok then begin
    Printf.printf "\n%d determinism drift(s): simulated output changed.\n" !drift;
    exit 1
  end;
  if missing_families <> [] then begin
    Printf.printf "\n%d required benchmark famil(ies) missing from %s.\n"
      (List.length missing_families) current_path;
    exit 1
  end;
  print_endline "\ndeterminism: OK (simulated outputs byte-identical to baseline)"
