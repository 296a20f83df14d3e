(* The repository benchmark.

   One run of one workload (the form BENCHMARK.json's command takes):
     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]
   --trace 0 measures the end-to-end metrics over a timed window of S
   seconds; --trace 1 is the separate traced run that reports the per-layer
   metrics and writes its spans to .benchsuite/spans-W-N.json.  The last
   line of stdout is the result:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   and the exit code is nonzero when any correctness check failed.
   --setup-only (no --seconds, no --trace) is how a --trace 0 run times a
   set-up in a fresh process: it prints that set-up's time, digest and
   violations as one JSON line.

   Every workload, each run in a fresh process:
     main.exe suite [--workload W]... [--seeds N,N,...] [--seconds S] [--json PATH]
   runs each workload once per seed untraced, then once traced, and prints
   each end-to-end metric's median and quartile spread against its bound
   in BENCHMARK.json. *)

open Benchsuite
module Json = Experiments.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let result_json (r : Bench.report) =
  Json.Obj
    [ ("correct", Json.Bool r.Bench.correct);
      ("attempted", Json.Int r.Bench.attempted);
      ("failed", Json.Int r.Bench.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Bench.metric) ->
               (m.Bench.name, Json.Obj [ ("value", Json.Float m.Bench.value); ("unit", Json.String m.Bench.unit) ]))
             r.Bench.metrics) ) ]

let run_one args =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let smoke = ref false and setup_only = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--setup-only" :: rest -> setup_only := true; go rest
    | arg :: _ -> die "benchsuite: unexpected argument %S" arg
  in
  go args;
  let scale = if !smoke then Workload.Smoke else Workload.Full in
  let find name =
    match Workload.find scale name with
    | Some w -> w
    | None ->
      die "benchsuite: unknown workload %S (have %s)" name
        (String.concat ", " (List.map (fun w -> w.Workload.name) (Workload.all scale)))
  in
  match (!workload, !seed, !seconds, !trace, !setup_only) with
  | Some name, Some seed, None, None, true -> print_endline (Bench.setup_child (find name) ~seed)
  | Some name, Some seed, Some seconds, Some trace, false ->
    let w = find name in
    let report =
      if trace then
        Bench.per_layer w ~seed ~scale ~spans_path:(Printf.sprintf ".benchsuite/spans-%s-%d.json" name seed)
      else Bench.end_to_end w ~seed ~seconds ~scale
    in
    List.iter print_endline report.Bench.notes;
    List.iter
      (fun (m : Bench.metric) -> Printf.printf "  %-30s %16.6g %s\n" m.Bench.name m.Bench.value m.Bench.unit)
      report.Bench.metrics;
    print_endline (Json.to_string (result_json report));
    if not report.Bench.correct then exit 1
  | _ -> die "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]"

(* -- suite: every workload in its own process -- *)

(* Python's statistics.quantiles(xs, n=4) (the default 'exclusive'
   method), so spreads here read the same as anyone else's check. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d in
  if ld < 2 then (Bench.median xs, Bench.median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  let last = match out with l :: _ -> l | [] -> "" in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, Ok doc -> doc
  | _, _ -> die "benchsuite suite: %s failed:\n%s" (String.concat " " args) (String.concat "\n" (List.rev out))

let metric_value doc name =
  match Option.bind (Json.member "metrics" doc) (Json.member name) with
  | Some m -> Option.bind (Json.member "value" m) Json.to_float_opt
  | None -> None

let suite args =
  let workloads = ref [] and seeds = ref [ 1 ] and seconds = ref None in
  let json = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workloads := !workloads @ [ v ]; go rest
    | "--seeds" :: v :: rest ->
      seeds :=
        List.map
          (fun s -> match int_of_string_opt s with Some n -> n | None -> die "benchsuite suite: bad seed %S" s)
          (String.split_on_char ',' v);
      go rest
    | "--seconds" :: v :: rest -> seconds := Some v; go rest
    | "--json" :: v :: rest -> json := Some v; go rest
    | arg :: _ -> die "benchsuite suite: unexpected argument %S" arg
  in
  go args;
  let doc =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> die "benchsuite suite: BENCHMARK.json: %s" e
  in
  let field k x = Option.bind (Json.member k x) Json.to_string_opt in
  let seconds =
    match (!seconds, Option.bind (Json.member "run_seconds" doc) Json.to_int_opt) with
    | Some s, _ -> s
    | None, Some s -> string_of_int s
    | None, None -> die "benchsuite suite: BENCHMARK.json has no run_seconds"
  in
  let entries key = Option.value (Option.bind (Json.member key doc) Json.to_list) ~default:[] in
  let end_to_end =
    List.map
      (fun m ->
        ( Option.get (field "name" m),
          Option.get (field "unit" m),
          Option.value (Option.bind (Json.member "bound" m) Json.to_float_opt) ~default:0.0 ))
      (entries "end_to_end")
  in
  let names =
    match !workloads with
    | [] -> List.filter_map (field "name") (entries "workloads")
    | ws -> ws
  in
  let results =
    List.map
      (fun w ->
        let runs =
          List.map
            (fun seed ->
              spawn [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; seconds; "--trace"; "0" ])
            !seeds
        in
        let traced =
          spawn [ "--workload"; w; "--seed"; string_of_int (List.hd !seeds); "--seconds"; seconds; "--trace"; "1" ]
        in
        Printf.printf "\n== %s (%d seeds, %s s windows) ==\n" w (List.length !seeds) seconds;
        Printf.printf "  %-18s %12s %12s %12s %8s %6s\n" "metric" "median" "q1" "q3" "spread" "bound";
        let rows =
          List.map
            (fun (name, unit, bound) ->
              let xs = List.filter_map (fun d -> metric_value d name) runs in
              let med = Bench.median xs in
              let q1, q3 = quartiles xs in
              let spread = if med = 0.0 then 0.0 else (q3 -. q1) /. med in
              Printf.printf "  %-18s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s  %s\n" name med q1 q3
                (spread *. 100.0) (bound *. 100.0)
                (if name <> "setup_s" && spread > bound /. 3.0 then " (over a third)" else "")
                unit;
              (name, Json.Obj [ ("median", Json.Float med); ("q1", Json.Float q1); ("q3", Json.Float q3);
                                ("values", Json.List (List.map (fun x -> Json.Float x) xs)) ]))
            end_to_end
        in
        flush stdout;
        (w, Json.Obj [ ("end_to_end", Json.Obj rows);
                       ("per_layer", Option.value (Json.member "metrics" traced) ~default:Json.Null) ]))
      names
  in
  match !json with
  | None -> ()
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Json.to_string (Json.Obj results));
        output_char oc '\n')

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: rest -> suite rest
  | args -> run_one args
