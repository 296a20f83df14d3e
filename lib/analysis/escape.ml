(* The race-escape check: for every closure submitted across the pool
   boundary, inspect its interprocedural writes-effect.  Writing its own
   parameters or values allocated inside its span is per-task and fine;
   writing an allocation site from outside the closure, a captured
   binding of an enclosing frame, or an unresolved top-level value means
   every task mutates the same store concurrently — a race the ordered
   merge cannot repair.  Per-domain DLS state, sites owned by the
   sanctioned runtime (the race-escape allowlist), and writes made inside
   it (a chain whose last step lies in an allowlisted file) are exempt. *)

let chain_tail_loc (chain : Report.step list) fallback =
  match List.rev chain with [] -> fallback | last :: _ -> last.Report.st_loc

let steps_of t key tg =
  List.map
    (fun (st_def, st_loc, st_action) -> { Report.st_def; st_loc; st_action })
    (Callgraph.write_chain t key tg)

let finding_of t ~allowed ~entry_fn ~entry_loc ~closure_key tg =
  let chain = steps_of t closure_key tg in
  (* A write made inside an allowlisted file is that file's audited one. *)
  let audited =
    match List.rev chain with last :: _ -> allowed last.Report.st_loc.Names.file | [] -> false
  in
  let mk loc message =
    if audited then None
    else
      Some
        { Report.f_rule = "race-escape";
          f_loc = loc;
          f_def = closure_key;
          f_entry = Some (entry_fn, entry_loc);
          f_message = message;
          f_chain = chain }
  in
  match tg with
  | Callgraph.TParam _ -> None
  | Callgraph.TSite s -> (
    match Callgraph.site t s with
    | None -> None
    | Some site ->
      let kind = site.Summary.s_kind in
      if kind = Names.Dls then None  (* per-domain by construction *)
      else
        mk site.Summary.s_loc
          (Printf.sprintf
             "task closure writes mutable %s `%s` allocated outside it (%s); every pool \
              task shares this store"
             (Names.alloc_kind_name kind) site.Summary.s_name
             (if site.Summary.s_top then "module level" else "enclosing scope")))
  | Callgraph.TGlobal g ->
    let loc =
      match Callgraph.def t g with
      | Some d -> d.Summary.d_loc
      | None -> chain_tail_loc chain entry_loc
    in
    mk loc
      (Printf.sprintf "task closure writes top-level value `%s`; every pool task shares it"
         g)
  | Callgraph.TOuter o ->
    mk (chain_tail_loc chain entry_loc)
      (Printf.sprintf
         "task closure writes `%s`, captured from enclosing definition %s; every pool \
          task shares it"
         o.Summary.oname o.Summary.oframe)

(* Exempt sites whose own file is allowlisted (the pool's internal queue,
   the per-domain cache): [allowed] tests the *site's* file, which is the
   semantic difference from line-based suppression. *)
let site_allowed t ~allowed tg =
  match tg with
  | Callgraph.TSite s -> (
    match Callgraph.site t s with
    | Some site -> allowed site.Summary.s_loc.Names.file
    | None -> false)
  | Callgraph.TGlobal g -> (
    match Callgraph.def t g with
    | Some d -> allowed d.Summary.d_loc.Names.file
    | None -> false)
  | Callgraph.TParam _ | Callgraph.TOuter _ -> false

let check t ~allowed =
  List.concat_map
    (fun (d : Summary.def) ->
      List.concat_map
        (fun (e : Summary.entry) ->
          match Callgraph.resolve t e.Summary.e_closure with
          | Callgraph.RFunc closure_key -> (
            match Callgraph.def t closure_key with
            | None -> []
            | Some c ->
              List.filter_map
                (fun (tg, _w) ->
                  let local =
                    match tg with
                    | Callgraph.TSite s -> (
                      match Callgraph.site t s with
                      | Some site ->
                        Names.loc_in_span site.Summary.s_loc c.Summary.d_span
                      | None -> false)
                    | _ -> false
                  in
                  if local || site_allowed t ~allowed tg then None
                  else
                    finding_of t ~allowed ~entry_fn:e.Summary.e_fn ~entry_loc:e.Summary.e_loc
                      ~closure_key tg)
                (Callgraph.effects t closure_key))
          | Callgraph.RSite _ | Callgraph.RUnknown -> [])
        d.Summary.d_entries)
    (Callgraph.defs_in_order t)
