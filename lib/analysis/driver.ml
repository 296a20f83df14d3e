(* Orchestration: discover and load cmts (the only parallel phase), link
   the call graph, run both checks, classify against lint.toml and escape
   comments, and hand back a report plus counters.  Everything after the
   ordered parallel load is serial and sorted, so the same tree yields
   the same report for any [jobs]. *)

type options = {
  build_dir : string;
  source_root : string;
  roots : string list;
  config : Lint.Config.t;
  jobs : int;
  read_source : (string -> string option) option;
      (** test hook: overrides on-disk source text for escape-comment
          scanning *)
}

type outcome = {
  o_report : Report.t;
  o_cmts : int;
  o_units : int;
}

let default_options ~config =
  { build_dir = Filename.concat "_build" "default";
    source_root = ".";
    roots = config.Lint.Config.roots;
    config;
    jobs = 1;
    read_source = None }

let run (opts : options) =
  let cmts = Loader.find_cmts ~build_dir:opts.build_dir ~roots:opts.roots in
  if cmts = [] then
    Error
      (Printf.sprintf "no .cmt files under %s for roots [%s]; %s" opts.build_dir
         (String.concat ", " opts.roots)
         Loader.regen_hint)
  else begin
    let loaded = Loader.load ~build_dir:opts.build_dir ~roots:opts.roots ~jobs:opts.jobs in
    let taint_cfg = Lint.Config.rule_cfg opts.config "race-taint" in
    let escape_cfg = Lint.Config.rule_cfg opts.config "race-escape" in
    let capped (d : Summary.def) =
      Lint.Config.path_in taint_cfg.Lint.Config.allow d.Summary.d_loc.Names.file
    in
    let graph = Callgraph.build ~capped loaded.Loader.units in
    let escape_findings =
      Escape.check graph ~allowed:(Lint.Config.path_in escape_cfg.Lint.Config.allow)
    in
    let taint_findings = Taint.check graph ~capped in
    let read_source =
      match opts.read_source with
      | Some f -> f
      | None -> Loader.source_text ~source_root:opts.source_root
    in
    let errors =
      List.map
        (fun (e : Loader.error) -> (e.Loader.e_path, e.Loader.e_msg))
        loaded.Loader.errors
    in
    let report =
      Report.make ~config:opts.config ~read_source ~errors
        (escape_findings @ taint_findings)
    in
    Ok
      { o_report = report;
        o_cmts = List.length cmts;
        o_units = List.length loaded.Loader.units }
  end
