(* Findings, escape-comment suppression, and the radio-race/v1 JSON
   report.

   Mirrors radio_lint's contract: a finding is [Active] unless the
   allowlist in lint.toml pre-approves its file or the offending line (or
   the line above) carries [(* radio-race: allow <rule> *)]; the process
   exits 1 iff any finding is active, 2 on configuration or loading
   errors, 0 otherwise.  JSON rendering goes through [Experiments.Json]
   and findings are sorted, so the report is byte-identical for any
   [--jobs]. *)

type step = {
  st_def : string;
  st_loc : Names.loc;
  st_action : string;
}

type finding = {
  f_rule : string;
  f_loc : Names.loc;
  f_def : string;
  f_entry : (string * Names.loc) option;
  f_message : string;
  f_chain : step list;
}

type status =
  | Active
  | Suppressed of string

type classified = {
  c_finding : finding;
  c_status : status;
}

type t = {
  r_findings : classified list;
  r_errors : (string * string) list;  (* (path, message) *)
}

let escape_marker = "radio-race: allow"

(* Every rule id after the marker is granted, as in radio_lint. *)
let escapes_rule line rule =
  List.mem rule
    (Lint.Engine.escapes_on_line ~marker:escape_marker ~ids:Lint.Rules.race_ids line)

(* --- classification --------------------------------------------------- *)

let split_lines text =
  let lines = String.split_on_char '\n' text in
  Array.of_list lines

let line_of lines n = if n >= 1 && n <= Array.length lines then lines.(n - 1) else ""

(* [read_source] maps a workspace-relative path to its text (None when
   the file cannot be found — findings there stay active). *)
let classify ~config ~read_source findings =
  let cache : (string, string array option) Hashtbl.t = Hashtbl.create 16 in
  let lines_for file =
    match Hashtbl.find_opt cache file with
    | Some v -> v
    | None ->
      let v = Option.map split_lines (read_source file) in
      Hashtbl.replace cache file v;
      v
  in
  List.map
    (fun f ->
      let cfg = Lint.Config.rule_cfg config f.f_rule in
      let status =
        if not cfg.Lint.Config.enabled then Suppressed "disabled"
        else if Lint.Config.path_in cfg.Lint.Config.allow f.f_loc.Names.file then
          Suppressed "allowlist"
        else
          match lines_for f.f_loc.Names.file with
          | Some lines
            when escapes_rule (line_of lines f.f_loc.Names.line) f.f_rule
                 || escapes_rule (line_of lines (f.f_loc.Names.line - 1)) f.f_rule ->
            Suppressed "escape-comment"
          | _ -> Active
      in
      { c_finding = f; c_status = status })
    findings

let compare_findings a b =
  let la = a.f_loc and lb = b.f_loc in
  let c = compare la.Names.file lb.Names.file in
  if c <> 0 then c
  else
    let c = compare la.Names.line lb.Names.line in
    if c <> 0 then c
    else
      let c = compare la.Names.col lb.Names.col in
      if c <> 0 then c
      else
        let c = compare a.f_rule b.f_rule in
        if c <> 0 then c
        else
          let c = compare a.f_def b.f_def in
          if c <> 0 then c else compare a.f_message b.f_message

let dedupe findings =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun f ->
      let key = (f.f_rule, f.f_loc, f.f_def, f.f_message) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    findings

let make ~config ~read_source ~errors findings =
  let findings = dedupe (List.sort compare_findings findings) in
  { r_findings = classify ~config ~read_source findings; r_errors = errors }

let active r =
  List.filter_map
    (fun c -> match c.c_status with Active -> Some c.c_finding | Suppressed _ -> None)
    r.r_findings

let exit_code r =
  if r.r_errors <> [] then 2 else if active r <> [] then 1 else 0

(* --- rendering -------------------------------------------------------- *)

let json_of_loc (l : Names.loc) =
  Experiments.Json.Obj
    [ ("file", Experiments.Json.String l.Names.file);
      ("line", Experiments.Json.Int l.Names.line);
      ("col", Experiments.Json.Int l.Names.col) ]

let json_of_step s =
  Experiments.Json.Obj
    [ ("def", Experiments.Json.String s.st_def);
      ("loc", json_of_loc s.st_loc);
      ("action", Experiments.Json.String s.st_action) ]

let json_of_classified c =
  let f = c.c_finding in
  Experiments.Json.Obj
    [ ("rule", Experiments.Json.String f.f_rule);
      ("loc", json_of_loc f.f_loc);
      ("def", Experiments.Json.String f.f_def);
      ( "entry",
        match f.f_entry with
        | Some (fn, loc) ->
          Experiments.Json.Obj
            [ ("fn", Experiments.Json.String fn); ("loc", json_of_loc loc) ]
        | None -> Experiments.Json.Null );
      ("message", Experiments.Json.String f.f_message);
      ( "status",
        Experiments.Json.String
          (match c.c_status with Active -> "active" | Suppressed r -> "suppressed:" ^ r)
      );
      ("chain", Experiments.Json.List (List.map json_of_step f.f_chain)) ]

let to_json r =
  let n_active = List.length (active r) in
  Experiments.Json.Obj
    [ ("version", Experiments.Json.String "radio-race/v1");
      ("findings", Experiments.Json.List (List.map json_of_classified r.r_findings));
      ( "errors",
        Experiments.Json.List
          (List.map
             (fun (path, msg) ->
               Experiments.Json.Obj
                 [ ("path", Experiments.Json.String path);
                   ("error", Experiments.Json.String msg) ])
             r.r_errors) );
      ( "summary",
        Experiments.Json.Obj
          [ ("active", Experiments.Json.Int n_active);
            ( "suppressed",
              Experiments.Json.Int (List.length r.r_findings - n_active) );
            ("errors", Experiments.Json.Int (List.length r.r_errors)) ] ) ]

let pp_text fmt r =
  List.iter
    (fun c ->
      let f = c.c_finding in
      let tag = match c.c_status with Active -> "" | Suppressed why -> " (" ^ why ^ ")" in
      Format.fprintf fmt "%a: [%s]%s %s@." Names.pp_loc f.f_loc f.f_rule tag f.f_message;
      (match f.f_entry with
      | Some (fn, loc) ->
        Format.fprintf fmt "    enters the pool via %s at %a@." fn Names.pp_loc loc
      | None -> ());
      List.iter
        (fun s ->
          Format.fprintf fmt "    %s %s at %a@." s.st_def s.st_action Names.pp_loc s.st_loc)
        f.f_chain)
    r.r_findings;
  List.iter
    (fun (path, msg) -> Format.fprintf fmt "error: %s: %s@." path msg)
    r.r_errors
