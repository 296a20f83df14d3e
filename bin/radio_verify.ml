(* radio_verify: the exhaustive small-model theorem verifier.

   Runs the certificate suite of lib/verify over a bounded tier and exits
   0 iff every certificate passed.  Stdout (the human report) and the
   --json document are deterministic — byte-identical across --jobs
   counts and hosts; wall-clock goes to stderr only. *)

open Cmdliner

let tier_arg =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Quick tier: all graphs on <= 5 nodes, t <= 2, C <= 6 (the CI gate; default).")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Full tier: all graphs on <= 6 nodes, C <= 8, tree feedback at t = 2 \
             (nightly).")
  in
  let pick quick full =
    match (quick, full) with
    | _, false -> `Ok "quick"
    | false, true -> `Ok "full"
    | true, true -> `Error (false, "--quick and --full are mutually exclusive")
  in
  Term.(ret (const pick $ quick $ full))

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the enumeration shards (default: the recommended \
           domain count).  Certificates are byte-identical for every N.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the radio-verify/v1 certificate document to $(docv).")

let run tier_label jobs json =
  match Verify.Instances.of_label tier_label with
  | None -> `Error (false, Printf.sprintf "unknown tier %S" tier_label)
  | Some tier ->
    let t0 = Parallel.Clock.now_s () in
    let report = Verify.Suite.run tier ~jobs in
    let wall = Parallel.Clock.now_s () -. t0 in
    Experiments.Common.render Format.std_formatter report.Verify.Suite.human;
    Format.pp_print_flush Format.std_formatter ();
    (match json with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       output_string oc (Experiments.Json.to_string report.Verify.Suite.doc);
       output_char oc '\n';
       close_out oc;
       Printf.eprintf "certificates written to %s\n%!" path);
    (* Timing is observability only: stderr, never in the certificates. *)
    Printf.eprintf "[verify-%s] %.2fs wall-clock, %d simulated rounds\n%!" tier_label wall
      report.Verify.Suite.human.Experiments.Common.total_rounds;
    if report.Verify.Suite.passed then `Ok ()
    else begin
      (* Exit 1, distinct from cmdliner's 124 for CLI misuse: CI gates on
         this code and the violation lines just rendered to stdout. *)
      Printf.eprintf "certificate suite FAILED\n%!";
      exit 1
    end

let main =
  let info =
    Cmd.info "radio_verify"
      ~doc:
        "Exhaustively verify the paper's theorems on small models: every graph, every \
         referee strategy, every strike sequence within the tier's bounds."
  in
  Cmd.v info Term.(ret (const run $ tier_arg $ jobs_arg $ json_arg))

let () = exit (Cmd.eval main)
