(* The AST walker.  Sources are parsed with compiler-libs ([Parse] on a
   [Lexing] buffer — the real OCaml grammar, not regexes), then scanned by
   two passes:

   - an [Ast_iterator] over every expression, for identifier-keyed rules
     (nondeterminism escapes, partial functions, printing) and bare
     [assert false];
   - a shallow structure walk for module-level mutable state, which must
     distinguish a top-level [let t = Hashtbl.create 16] from the same
     expression inside a function body.

   Escape hatches are comments of the form [(* radio-lint: allow <rule> *)]
   on the offending line or the line above; they are matched textually
   because comments are not part of the parsetree.  An escape that ends up
   suppressing nothing is itself a [stale-escape] finding, so a reflow
   that moves one away from its target names the orphaned comment.

   Known limitation: identifier rules see syntactic paths, so an aliased
   module ([module H = Hashtbl]) or a functor-made table escapes them.
   The repo avoids such aliases; the lint run keeps it that way de facto. *)

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type report = {
  active : violation list;
  suppressed : (violation * string) list;
  errors : (string * string) list;
  files : string list;
}

let ok r = r.active = [] && r.errors = []

let pp_violation fmt v =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" v.file v.line v.col v.rule v.message

(* --- identifier classification ------------------------------------- *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (l, _) -> flatten_lid l

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let is_unsafe_accessor f =
  String.length f > 7 && String.sub f 0 7 = "unsafe_"

let order_sensitive = function
  | "iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" | "filter_map_inplace" ->
    true
  | _ -> false

let bare_print = function
  | "print_endline" | "print_string" | "print_newline" | "print_char" | "print_int"
  | "print_float" | "print_bytes" | "prerr_endline" | "prerr_string" | "prerr_newline" ->
    true
  | _ -> false

let ident_rule path =
  match strip_stdlib path with
  | "Random" :: _ -> Some "nondet-random"
  | [ "Sys"; "time" ] -> Some "nondet-time"
  | ("Unix" | "UnixLabels") :: _ -> Some "nondet-unix"
  | [ "Hashtbl"; f ] | [ "MoreLabels"; "Hashtbl"; f ] when order_sensitive f ->
    Some "nondet-hashtbl-order"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] -> Some "nondet-poly-hash"
  | [ "Atomic";
      ( "make" | "set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr"
      | "decr" ) ] ->
    Some "nondet-atomic"
  | [ "Domain"; ("spawn" | "join") ]
  | [ ("Mutex" | "Condition" | "Semaphore"); "create" ]
  | [ "Semaphore"; ("Counting" | "Binary"); "make" ] ->
    Some "nondet-domain"
  | [ "compare" ] -> Some "nondet-poly-compare"
  | [ ("List" | "ListLabels"); ("hd" | "nth") ] -> Some "partial-list"
  | [ "Option"; "get" ] -> Some "partial-option-get"
  | [ ("Array" | "ArrayLabels" | "Bytes" | "BytesLabels"); f ] when is_unsafe_accessor f ->
    Some "partial-array-unsafe"
  | [ f ] when bare_print f -> Some "io-print"
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ] -> Some "io-print"
  | [ "Format"; ("std_formatter" | "err_formatter" | "print_string" | "print_newline"
                | "print_flush") ] ->
    Some "io-print"
  | _ -> None

let summary_of rule =
  match Rules.find rule with
  | Some r -> r.Rules.summary
  | None -> "unknown rule"

(* --- AST passes ----------------------------------------------------- *)

let violation ~file ~loc ~rule ~what =
  let p = loc.Location.loc_start in
  { file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message = Printf.sprintf "%s: %s" what (summary_of rule) }

let expression_pass ~file structure =
  let acc = ref [] in
  let report ~loc ~rule ~what = acc := violation ~file ~loc ~rule ~what :: !acc in
  let default = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
     | Parsetree.Pexp_ident { txt; loc } -> (
       let path = flatten_lid txt in
       match ident_rule path with
       | Some rule -> report ~loc ~rule ~what:(String.concat "." path)
       | None -> ())
     | Parsetree.Pexp_assert
         { pexp_desc = Parsetree.Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
           _ } ->
       report ~loc:e.pexp_loc ~rule:"partial-assert-false" ~what:"assert false"
     | _ -> ());
    default.expr self e
  in
  let iterator = { default with expr } in
  iterator.structure iterator structure;
  List.rev !acc

let rec creates_mutable (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) -> creates_mutable e
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) -> (
    match strip_stdlib (flatten_lid txt) with
    | [ "ref" ] | [ "Hashtbl"; "create" ] | [ "Buffer"; "create" ] -> true
    | _ -> false)
  | _ -> false

let global_state_pass ~file structure =
  let acc = ref [] in
  let rec check_structure items = List.iter check_item items
  and check_item (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Parsetree.Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          if creates_mutable vb.pvb_expr then
            acc :=
              violation ~file ~loc:vb.pvb_loc ~rule:"global-mutable"
                ~what:"module-level binding"
              :: !acc)
        vbs
    | Parsetree.Pstr_module mb -> check_module_expr mb.pmb_expr
    | Parsetree.Pstr_recmodule mbs ->
      List.iter (fun (mb : Parsetree.module_binding) -> check_module_expr mb.pmb_expr) mbs
    | Parsetree.Pstr_include incl -> check_module_expr incl.pincl_mod
    | _ -> ()
  and check_module_expr (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Parsetree.Pmod_structure st -> check_structure st
    | Parsetree.Pmod_constraint (me, _) -> check_module_expr me
    (* Functor bodies allocate per application, not per program: skip. *)
    | _ -> ()
  in
  check_structure structure;
  List.rev !acc

(* --- escape comments ------------------------------------------------ *)

let escape_marker = "radio-lint: allow"

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* Rule ids granted on a source line: every [a-z0-9-] token after the
   marker that names a known rule.  Free-form justification text around
   the ids is ignored. *)
let escapes_on_line ~marker ~ids line =
  match find_sub line marker with
  | None -> []
  | Some i ->
    let from = i + String.length marker in
    let rest = String.sub line from (String.length line - from) in
    let tokens = ref [] in
    let buf = Buffer.create 16 in
    let flush () =
      if Buffer.length buf > 0 then begin
        let t = Buffer.contents buf in
        if List.mem t ids then tokens := t :: !tokens;
        Buffer.clear buf
      end
    in
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | '0' .. '9' | '-' -> Buffer.add_char buf c
        | _ -> flush ())
      rest;
    flush ();
    List.rev !tokens

let escape_map source =
  String.split_on_char '\n' source
  |> List.mapi (fun i line ->
         (i + 1, escapes_on_line ~marker:escape_marker ~ids:Rules.ids line))
  |> List.filter (fun (_, rules) -> rules <> [])

(* The line of the escape granting [rule] at [line]: the line itself,
   else the line above. *)
let escape_line escapes ~line ~rule =
  List.find_opt
    (fun l ->
      match List.assoc_opt l escapes with
      | Some rules -> List.mem rule rules
      | None -> false)
    [ line; line - 1 ]

(* --- file collection ------------------------------------------------ *)

let hidden name = name = "" || name.[0] = '.' || name.[0] = '_'

let normalize path =
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let collect_files roots =
  let rec walk path acc =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if hidden name then acc else walk (Filename.concat path name) acc)
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.fold_left (fun acc root -> walk (normalize root) acc) [] roots
  |> List.sort_uniq String.compare

(* --- driver --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_implementation ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let raw_file_violations ~file source =
  let structure = parse_implementation ~path:file source in
  expression_pass ~file structure @ global_state_pass ~file structure

let interface_pass ~config files =
  let cfg = Config.rule_cfg config "iface-missing-mli" in
  if not cfg.Config.enabled then []
  else
    List.filter_map
      (fun file ->
        let in_scope = cfg.Config.scope = [] || Config.path_in cfg.Config.scope file in
        if in_scope && not (Sys.file_exists (file ^ "i")) then
          Some
            { file;
              line = 1;
              col = 0;
              rule = "iface-missing-mli";
              message =
                Printf.sprintf "%s has no %si: %s" (Filename.basename file)
                  (Filename.basename file)
                  (summary_of "iface-missing-mli") }
        else None)
      files

type verdict =
  | Active
  | Suppressed of string
  | Escaped of int  (** by the escape comment on this line *)
  | Dropped

(* Whether [rule] is checked in [file] at all: enabled and in scope. *)
let applies ~config ~file rule =
  let cfg = Config.rule_cfg config rule in
  cfg.Config.enabled && (cfg.Config.scope = [] || Config.path_in cfg.Config.scope file)

let classify ~config ~escapes v =
  if not (applies ~config ~file:v.file v.rule) then Dropped
  else if Config.path_in (Config.rule_cfg config v.rule).Config.allow v.file then
    Suppressed "allowlist"
  else
    match escape_line escapes ~line:v.line ~rule:v.rule with
    | Some l -> Escaped l
    | None -> Active

(* One [stale-escape] per rule an escape comment grants that no
   violation of the file used.  A grant for a rule that is disabled or
   out of scope here is not stale: it covers its site again once the
   rule applies. *)
let stale_escapes ~config ~file ~escapes ~used =
  List.concat_map
    (fun (line, rules) ->
      List.filter_map
        (fun rule ->
          if List.mem (line, rule) used || not (applies ~config ~file rule) then None
          else
            Some
              { file; line; col = 0; rule = "stale-escape";
                message =
                  Printf.sprintf "allow %s suppresses nothing: %s" rule
                    (summary_of "stale-escape") })
        rules)
    escapes

let compare_violation a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let run ~config roots =
  let files = collect_files roots in
  let active = ref [] and suppressed = ref [] and errors = ref [] in
  (* The (line, rule) of the escape that quieted [v], if one did. *)
  let consider ~escapes v =
    match classify ~config ~escapes v with
    | Active ->
      active := v :: !active;
      None
    | Suppressed reason ->
      suppressed := (v, reason) :: !suppressed;
      None
    | Escaped line ->
      suppressed := (v, "escape-comment") :: !suppressed;
      Some (line, v.rule)
    | Dropped -> None
  in
  let consider_all ~escapes vs = List.filter_map (consider ~escapes) vs in
  List.iter
    (fun file ->
      match read_file file with
      | exception Sys_error msg -> errors := (file, msg) :: !errors
      | source -> (
        let escapes = escape_map source in
        match raw_file_violations ~file source with
        | raw ->
          let used = consider_all ~escapes raw in
          (* Escapes do not apply to their own findings. *)
          let stale = stale_escapes ~config ~file ~escapes ~used in
          ignore (consider_all ~escapes:[] stale : _ list)
        | exception exn ->
          let msg =
            match Location.error_of_exn exn with
            | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
            | Some `Already_displayed | None -> Printexc.to_string exn
          in
          errors := (file, "parse error: " ^ String.trim msg) :: !errors))
    files;
  ignore (consider_all ~escapes:[] (interface_pass ~config files) : _ list);
  { active = List.sort compare_violation !active;
    suppressed =
      List.sort (fun (a, _) (b, _) -> compare_violation a b) !suppressed;
    errors = List.sort compare !errors;
    files }
