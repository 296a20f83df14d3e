(* Per-compilation-unit extraction: one pass over a .cmt typedtree
   producing, for every definition (top-level binding, nested module
   binding, or lexically nested closure), a summary of

   - the calls and references it makes (the call-graph edges), with the
     origin of each argument so mutation effects can be translated
     through parameter positions interprocedurally;
   - the mutable allocation sites it owns and the writes it performs,
     each write naming the *origin* of the mutated value (own parameter,
     known allocation site, captured binding, global);
   - its own determinism taint (references to clocks, randomness,
     unordered traversal, raw domain primitives, I/O);
   - the pool-boundary calls it contains ([Parallel.map_ordered],
     [Pool.map_ordered], [Common.replicates]/[sweep]) and which closure
     crosses each one.

   Because the walk is over the *typedtree*, every identifier carries its
   resolved [Path.t]: module aliases, [open]s, and functor-free renamings
   are already resolved, which is exactly what the syntactic linter
   cannot see.  Value aliases ([let t = table]) are handled by copy
   propagation in [bind_vbs]; partial application and values returned
   from unknown higher-order functions remain out of scope (documented in
   DESIGN.md).

   Scoping uses the fact that idents are unique per unit: the environment
   maps [Ident.unique_name] to [(owning frame, origin)] and is never
   popped.  A lookup from a different frame than the owner demotes
   frame-relative origins (parameters, opaque locals) to [OOuter] — a
   value captured from an enclosing scope. *)

type site_key = string * int

type outer_base =
  | Oparam of int
  | Oopaque

type outer = {
  oframe : string;
  obase : outer_base;
  oname : string;
}

type origin =
  | OParam of int
  | OSite of site_key
  | OFunc of string
  | OGlobal of string
  | OReturn of string
  | OOuter of outer
  | OOther

type site = {
  s_key : site_key;
  s_loc : Names.loc;
  s_kind : Names.alloc_kind;
  s_owner : string;
  s_top : bool;
  s_name : string;
}

type call = {
  c_callee : string;
  c_args : (Asttypes.arg_label * origin) list;
  c_loc : Names.loc;
}

type entry = {
  e_fn : string;
  e_loc : Names.loc;
  e_closure : origin;
}

type def = {
  d_key : string;
  d_name : string;
  d_loc : Names.loc;
  d_span : Names.span;
  d_params : Asttypes.arg_label list;
  d_fun : bool;
  d_calls : call list;
  d_writes : (origin * Names.loc * string) list;
  d_taint : (string * Names.loc) option;
  d_det : bool;
  d_entries : entry list;
  d_returns : origin;
}

type t = {
  u_name : string;
  u_source : string;
  u_defs : def list;
  u_sites : site list;
  u_globals : (string * origin) list;
}

(* --- extraction state ----------------------------------------------- *)

type frame = {
  f_key : string;
  f_name : string;
  f_loc : Names.loc;
  f_span : Names.span;
  mutable f_params : Asttypes.arg_label list;  (* reversed *)
  mutable f_fun : bool;
  mutable f_calls : call list;  (* reversed *)
  mutable f_writes : (origin * Names.loc * string) list;  (* reversed *)
  mutable f_taint : (string * Names.loc) option;
  mutable f_det : bool;
  mutable f_entries : entry list;  (* reversed *)
  mutable f_returns : origin;
}

type ctx = {
  cx_unit : string;
  cx_source : string;
  cx_env : (string, string * origin) Hashtbl.t;
  cx_funs : (string, string) Hashtbl.t;  (* function-expression loc -> def key *)
  mutable cx_frames : frame list;
  mutable cx_defs : def list;  (* reversed *)
  mutable cx_sites : site list;  (* reversed *)
  mutable cx_globals : (string * origin) list;  (* reversed *)
  mutable cx_nsites : int;
  (* the per-unit Tast_iterator, closed over this ctx (set up by
     [of_structure]); per-unit state keeps the summarizer safe to run
     from the analyzer's own parallel loading loop *)
  mutable cx_iter : Tast_iterator.iterator;
}

let top_frame_key = "<top>"

let current ctx =
  match ctx.cx_frames with
  | f :: _ -> f
  | [] ->
    (* Bindings outside any frame (pass-1 registration) attribute to the
       module top level. *)
    { f_key = top_frame_key;
      f_name = top_frame_key;
      f_loc = { Names.file = ctx.cx_source; line = 0; col = 0 };
      f_span = Names.null_span;
      f_params = [];
      f_fun = false;
      f_calls = [];
      f_writes = [];
      f_taint = None;
      f_det = false;
      f_entries = [];
      f_returns = OOther }

let loc_of ctx (l : Location.t) = Names.loc_of ~file:ctx.cx_source l

let span_of ctx (l : Location.t) = Names.span_of ~file:ctx.cx_source l

let loc_key (l : Location.t) =
  let p = l.Location.loc_start and e = l.Location.loc_end in
  Printf.sprintf "%d:%d-%d:%d" p.Lexing.pos_lnum p.Lexing.pos_cnum e.Lexing.pos_lnum
    e.Lexing.pos_cnum

let bind ctx ?frame id origin =
  let fk = match frame with Some k -> k | None -> (current ctx).f_key in
  Hashtbl.replace ctx.cx_env (Ident.unique_name id) (fk, origin)

let lookup ctx id =
  match Hashtbl.find_opt ctx.cx_env (Ident.unique_name id) with
  | None -> OOther
  | Some (fk, o) -> (
    match o with
    | OSite _ | OFunc _ | OGlobal _ | OOuter _ -> o
    | OParam i ->
      if fk = (current ctx).f_key then o
      else OOuter { oframe = fk; obase = Oparam i; oname = Ident.name id }
    | OReturn _ ->
      (* [let t = make () in ...]: in the binding frame the value is
         fresh per execution; captured by an inner closure it is shared
         across that closure's calls, so demote to a capture *)
      if fk = (current ctx).f_key then o
      else OOuter { oframe = fk; obase = Oopaque; oname = Ident.name id }
    | OOther ->
      if fk = (current ctx).f_key then o
      else OOuter { oframe = fk; obase = Oopaque; oname = Ident.name id })

let new_site ctx ~kind ~name ~top (l : Location.t) =
  let key = (ctx.cx_unit, ctx.cx_nsites) in
  ctx.cx_nsites <- ctx.cx_nsites + 1;
  let s =
    { s_key = key;
      s_loc = loc_of ctx l;
      s_kind = kind;
      s_owner = (current ctx).f_key;
      s_top = top;
      s_name = name }
  in
  ctx.cx_sites <- s :: ctx.cx_sites;
  s

let add_call ctx callee args loc =
  let f = current ctx in
  if f.f_key <> top_frame_key then
    f.f_calls <- { c_callee = callee; c_args = args; c_loc = loc_of ctx loc } :: f.f_calls

let add_write ctx origin loc what =
  let f = current ctx in
  f.f_det <- true;
  if f.f_key <> top_frame_key then
    f.f_writes <- (origin, loc_of ctx loc, what) :: f.f_writes

let add_taint ctx what loc =
  let f = current ctx in
  if f.f_taint = None then f.f_taint <- Some (what, loc_of ctx loc)

let add_entry ctx fn closure loc =
  let f = current ctx in
  if f.f_key <> top_frame_key then
    f.f_entries <- { e_fn = fn; e_loc = loc_of ctx loc; e_closure = closure } :: f.f_entries

(* --- patterns -------------------------------------------------------- *)

let rec pat_vars : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ id ]
  | Typedtree.Tpat_alias (p, id, _) -> id :: pat_vars p
  | Typedtree.Tpat_tuple ps -> List.concat_map pat_vars ps
  | Typedtree.Tpat_array ps -> List.concat_map pat_vars ps
  | Typedtree.Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Typedtree.Tpat_variant (_, Some p, _) -> pat_vars p
  | Typedtree.Tpat_record (fields, _) -> List.concat_map (fun (_, _, p) -> pat_vars p) fields
  | Typedtree.Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Typedtree.Tpat_lazy p -> pat_vars p
  | Typedtree.Tpat_value arg -> pat_vars (arg :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_exception p -> pat_vars p
  | _ -> []

(* A pattern that names the whole argument (keeps parameter tracking). *)
let rec simple_param_ids : type k. k Typedtree.general_pattern -> Ident.t list option =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some [ id ]
  | Typedtree.Tpat_any -> Some []
  | Typedtree.Tpat_alias (p, id, _) -> (
    match simple_param_ids p with Some ids -> Some (id :: ids) | None -> None)
  | _ -> None

(* A binding pattern that names exactly one value: [let x = ...] or the
   annotated form [let x : t = ...], which types as
   [Tpat_alias (Tpat_any, x, _)]. *)
let single_var (p : Typedtree.pattern) =
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, { txt; _ }) -> Some (id, txt)
  | Typedtree.Tpat_alias ({ pat_desc = Typedtree.Tpat_any; _ }, id, { txt; _ }) ->
    Some (id, txt)
  | _ -> None

(* --- expression shapes ----------------------------------------------- *)

let mutable_record_fields fields =
  Array.exists
    (fun ((lbl : Types.label_description), _) -> lbl.Types.lbl_mut = Asttypes.Mutable)
    fields

(* Components of the (possibly alias-resolved) head of an application. *)
let head_components ctx (f : Typedtree.expression) =
  match f.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
    match lookup ctx id with
    | OGlobal g -> Some (String.split_on_char '.' g)
    | _ -> None)
  | Typedtree.Texp_ident (p, _, _) -> Some (Names.normalize p)
  | _ -> None

type rhs_shape =
  | Sfun
  | Salloc of Names.alloc_kind
  | Sident
  | Sapply
  | Sother

let rhs_shape ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> Sfun
  | Typedtree.Texp_ident _ | Typedtree.Texp_field _ -> Sident
  | Typedtree.Texp_array _ -> Salloc Names.Arr
  | Typedtree.Texp_record { fields; _ } when mutable_record_fields fields ->
    Salloc Names.Mrec
  | Typedtree.Texp_apply (f, _) -> (
    match head_components ctx f with
    | Some comps -> (
      match Names.mutable_alloc comps with Some k -> Salloc k | None -> Sapply)
    | None -> Sapply)
  | _ -> Sother

let rec origin_of ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> lookup ctx id
  | Typedtree.Texp_ident (p, _, _) ->
    OGlobal (Names.key_of_components (Names.normalize p))
  | Typedtree.Texp_field (e1, _, _) -> origin_of ctx e1
  | Typedtree.Texp_apply (f, _) -> (
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      match lookup ctx id with
      | OFunc k -> OReturn k
      | OGlobal g -> OReturn g
      | _ -> OOther)
    | Typedtree.Texp_ident (p, _, _) ->
      OReturn (Names.key_of_components (Names.normalize p))
    | _ -> OOther)
  | _ -> OOther

let rec tail_origin ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_let (_, _, body)
  | Typedtree.Texp_sequence (_, body)
  | Typedtree.Texp_open (_, body) ->
    tail_origin ctx body
  | Typedtree.Texp_ident _ | Typedtree.Texp_field _ | Typedtree.Texp_apply _ ->
    origin_of ctx e
  | Typedtree.Texp_function _ -> OOther  (* resolved by the caller via cx_funs *)
  | _ -> OOther

(* --- the walker ------------------------------------------------------ *)

let default = Tast_iterator.default_iterator

let make ~unit_name ~source =
  { cx_unit = unit_name;
    cx_source = source;
    cx_env = Hashtbl.create 512;
    cx_funs = Hashtbl.create 64;
    cx_frames = [];
    cx_defs = [];
    cx_sites = [];
    cx_globals = [];
    cx_nsites = 0;
    cx_iter = default }

let push_frame ctx ~key ~name ~loc ~span =
  let f =
    { f_key = key;
      f_name = name;
      f_loc = loc;
      f_span = span;
      f_params = [];
      f_fun = false;
      f_calls = [];
      f_writes = [];
      f_taint = None;
      f_det = false;
      f_entries = [];
      f_returns = OOther }
  in
  ctx.cx_frames <- f :: ctx.cx_frames;
  f

let pop_frame ctx =
  match ctx.cx_frames with
  | f :: rest ->
    ctx.cx_frames <- rest;
    let def =
      { d_key = f.f_key;
        d_name = f.f_name;
        d_loc = f.f_loc;
        d_span = f.f_span;
        d_params = List.rev f.f_params;
        d_fun = f.f_fun;
        d_calls = List.rev f.f_calls;
        d_writes = List.rev f.f_writes;
        d_taint = f.f_taint;
        d_det = f.f_det;
        d_entries = List.rev f.f_entries;
        d_returns = f.f_returns }
    in
    ctx.cx_defs <- def :: ctx.cx_defs;
    def
  | [] -> invalid_arg "Summary.pop_frame: no frame"

let walk_expr ctx e = ctx.cx_iter.Tast_iterator.expr ctx.cx_iter e

(* Mutually recursive group: expression pre-processing, application
   handling, binding handling, and function-definition building. *)
let rec pre_expr ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
    match p with
    | Path.Pident _ -> ()
    | _ ->
      let comps = Names.normalize p in
      (match Names.taint_source comps with
       | Some what -> add_taint ctx what e.Typedtree.exp_loc
       | None -> ());
      if Names.det_local_source comps then (current ctx).f_det <- true;
      add_call ctx (Names.key_of_components comps) [] e.Typedtree.exp_loc)
  | Typedtree.Texp_function _ -> ignore (synth_fun ctx ?name:None e)
  | Typedtree.Texp_apply (f, args) ->
    let base, all_args = flatten_apply f args in
    handle_apply ctx e.Typedtree.exp_loc base all_args
  | Typedtree.Texp_let (_, vbs, _) -> bind_vbs ctx vbs
  | Typedtree.Texp_match (_, cases, _) ->
    List.iter
      (fun (c : Typedtree.computation Typedtree.case) ->
        List.iter (fun id -> bind ctx id OOther) (pat_vars c.Typedtree.c_lhs))
      cases
  | Typedtree.Texp_try (_, cases) ->
    List.iter
      (fun (c : Typedtree.value Typedtree.case) ->
        List.iter (fun id -> bind ctx id OOther) (pat_vars c.Typedtree.c_lhs))
      cases
  | Typedtree.Texp_setfield (e1, _, lbl, _) ->
    add_write ctx (origin_of ctx e1) e.Typedtree.exp_loc
      (lbl.Types.lbl_name ^ " <-")
  | Typedtree.Texp_for (id, _, _, _, _, _) -> bind ctx id OOther
  | _ -> ()

and flatten_apply f args =
  match f.Typedtree.exp_desc with
  | Typedtree.Texp_apply (g, args') -> flatten_apply g (args' @ args)
  | _ -> (f, args)

and handle_apply ctx loc (f : Typedtree.expression) args =
  let comps = head_components ctx f in
  let stripped = match comps with Some c -> Names.strip_stdlib c | None -> [] in
  (* Pipeline operators: [x |> f] is [f x], [f @@ x] is [f x]. *)
  match (stripped, args) with
  | [ "|>" ], [ (_, Some x); (_, Some fn) ] | [ "@@" ], [ (_, Some fn); (_, Some x) ] ->
    let base, inner = flatten_apply fn [] in
    handle_apply ctx loc base (inner @ [ (Asttypes.Nolabel, Some x) ])
  | _ -> (
    let nolabel_args =
      List.filter_map
        (fun (l, a) ->
          match (l, a) with (Asttypes.Nolabel, Some a) -> Some a | _ -> None)
        args
    in
    (* Pool boundary? *)
    (match comps with
     | Some c -> (
       match Names.pool_entry c with
       | Some (fn_name, closure_idx) -> (
         match List.nth_opt nolabel_args closure_idx with
         | Some closure_expr ->
           let o = origin_rich ctx closure_expr in
           add_entry ctx fn_name o loc;
           (* the pool runs the closure: taint flows through the edge *)
           (match o with OFunc k -> add_call ctx k [] loc | _ -> ())
         | None -> ())
       | None -> ())
     | None -> ());
    (* Mutation primitive? *)
    (match comps with
     | Some c -> (
       match Names.mutates c with
       | Some idxs ->
         let what = Names.key_of_components (Names.strip_stdlib c) in
         List.iter
           (fun i ->
             match List.nth_opt nolabel_args i with
             | Some target -> add_write ctx (origin_of ctx target) loc what
             | None -> ())
           idxs
       | None -> ())
     | None -> ());
    (* Ordinary call edge, with argument origins for the fixpoint. *)
    let callee =
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
        match lookup ctx id with OFunc k -> Some k | OGlobal g -> Some g | _ -> None)
      | Typedtree.Texp_ident (p, _, _) ->
        Some (Names.key_of_components (Names.normalize p))
      | _ -> None
    in
    let arg_origins =
      List.filter_map
        (fun (l, a) ->
          match a with Some a -> Some (l, origin_rich ctx a) | None -> None)
        args
    in
    (match callee with
     | Some k -> add_call ctx k arg_origins loc
     | None -> ());
    (* A function passed anywhere may be called by its receiver: treat
       function-valued arguments as potential callees of this frame, so
       effects and taint in callbacks given to unknown higher-order
       functions (List.iter, ...) still reach the caller. *)
    List.iter
      (fun (_, o) -> match o with OFunc k -> add_call ctx k [] loc | _ -> ())
      arg_origins)

(* Origin including function literals (synthesizing their defs). *)
and origin_rich ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> synth_fun ctx ?name:None e
  | _ -> origin_of ctx e

and bind_vbs ctx vbs =
  List.iter
    (fun (vb : Typedtree.value_binding) ->
      match single_var vb.Typedtree.vb_pat with
      | Some (id, txt) -> (
        match rhs_shape ctx vb.Typedtree.vb_expr with
        | Sfun -> bind ctx id (synth_fun ctx ~name:txt vb.Typedtree.vb_expr)
        | Salloc kind ->
          let s =
            new_site ctx ~kind ~name:txt ~top:false vb.Typedtree.vb_expr.Typedtree.exp_loc
          in
          (current ctx).f_det <- true;
          bind ctx id (OSite s.s_key)
        | Sident | Sapply -> bind ctx id (origin_of ctx vb.Typedtree.vb_expr)
        | Sother -> bind ctx id OOther)
      | None ->
        List.iter (fun id -> bind ctx id OOther) (pat_vars vb.Typedtree.vb_pat))
    vbs

(* Build the definition for a function expression: flatten the curried
   parameter chain, bind each parameter, then walk the innermost body in
   a fresh frame. *)
and build_fun ctx ~key ~name (e : Typedtree.expression) =
  let frame =
    push_frame ctx ~key ~name
      ~loc:(loc_of ctx e.Typedtree.exp_loc)
      ~span:(span_of ctx e.Typedtree.exp_loc)
  in
  frame.f_fun <- true;
  let rec flatten (e : Typedtree.expression) i =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_function
        { arg_label; param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
      when simple_param_ids c_lhs <> None ->
      frame.f_params <- arg_label :: frame.f_params;
      bind ctx param (OParam i);
      (match simple_param_ids c_lhs with
       | Some ids -> List.iter (fun id -> bind ctx id (OParam i)) ids
       | None -> ());
      flatten c_rhs (i + 1)
    | Typedtree.Texp_function { arg_label; param; cases; _ } ->
      (* destructuring or multi-case: the parameter's pieces are local
         opaque values of this frame *)
      frame.f_params <- arg_label :: frame.f_params;
      bind ctx param (OParam i);
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          List.iter (fun id -> bind ctx id OOther) (pat_vars c.Typedtree.c_lhs);
          (match c.Typedtree.c_guard with Some g -> walk_expr ctx g | None -> ());
          walk_expr ctx c.Typedtree.c_rhs)
        cases;
      frame.f_returns <- OOther
    | Typedtree.Texp_let (Asttypes.Nonrecursive, [ vb ], body)
      when List.exists
             (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.Location.txt = "#default")
             e.Typedtree.exp_attributes ->
      (* [?(x = d)]: the default's [let x = match *opt* with ...] wraps the
         rest of the chain.  Its pieces are the optional parameter's; walk
         [d] and keep flattening. *)
      walk_expr ctx vb.Typedtree.vb_expr;
      List.iter (fun id -> bind ctx id (OParam (i - 1))) (pat_vars vb.Typedtree.vb_pat);
      flatten body i
    | body_expr ->
      ignore body_expr;
      walk_expr ctx e;
      frame.f_returns <-
        (match e.Typedtree.exp_desc with
         | Typedtree.Texp_function _ -> OOther
         | _ -> resolve_tail ctx e)
  in
  flatten e 0;
  ignore (pop_frame ctx)

and resolve_tail ctx e =
  match tail_origin ctx e with
  | OOther -> (
    (* a tail closure: its def key is memoized by now *)
    match last_fun_tail ctx e with Some k -> OFunc k | None -> OOther)
  | o -> o

and last_fun_tail ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_let (_, _, body)
  | Typedtree.Texp_sequence (_, body)
  | Typedtree.Texp_open (_, body) ->
    last_fun_tail ctx body
  | Typedtree.Texp_function _ ->
    Hashtbl.find_opt ctx.cx_funs (loc_key e.Typedtree.exp_loc)
  | _ -> None

and synth_fun ctx ?name (e : Typedtree.expression) =
  let lk = loc_key e.Typedtree.exp_loc in
  match Hashtbl.find_opt ctx.cx_funs lk with
  | Some key -> OFunc key
  | None ->
    let l = loc_of ctx e.Typedtree.exp_loc in
    let base = match name with Some n -> n | None -> "fun" in
    let key = Printf.sprintf "%s.<%s:%d:%d>" ctx.cx_unit base l.Names.line l.Names.col in
    let display =
      match name with
      | Some n -> Printf.sprintf "%s (%s:%d)" n l.Names.file l.Names.line
      | None -> Printf.sprintf "<fun> (%s:%d)" l.Names.file l.Names.line
    in
    Hashtbl.replace ctx.cx_funs lk key;
    build_fun ctx ~key ~name:display e;
    OFunc key

(* --- structures ------------------------------------------------------ *)

let toplevel_key mpath name = Names.key_of_components (mpath @ [ name ])

let register_toplevel ctx mpath (vb : Typedtree.value_binding) =
  match single_var vb.Typedtree.vb_pat with
  | Some (id, txt) -> (
    let key = toplevel_key mpath txt in
    match rhs_shape ctx vb.Typedtree.vb_expr with
    | Sfun ->
      (* pre-claim the function-def key so in-unit and cross-unit
         references resolve to the same canonical name *)
      Hashtbl.replace ctx.cx_funs (loc_key vb.Typedtree.vb_expr.Typedtree.exp_loc) key;
      bind ctx ~frame:top_frame_key id (OFunc key);
      ctx.cx_globals <- (key, OFunc key) :: ctx.cx_globals
    | Salloc kind ->
      let s = new_site ctx ~kind ~name:txt ~top:true vb.Typedtree.vb_expr.Typedtree.exp_loc in
      bind ctx ~frame:top_frame_key id (OSite s.s_key);
      ctx.cx_globals <- (key, OSite s.s_key) :: ctx.cx_globals
    | Sident ->
      let o = origin_of ctx vb.Typedtree.vb_expr in
      bind ctx ~frame:top_frame_key id o;
      ctx.cx_globals <- (key, o) :: ctx.cx_globals
    | Sapply | Sother ->
      bind ctx ~frame:top_frame_key id (OGlobal key);
      ctx.cx_globals <- (key, OGlobal key) :: ctx.cx_globals)
  | None ->
    List.iter
      (fun id -> bind ctx ~frame:top_frame_key id OOther)
      (pat_vars vb.Typedtree.vb_pat)

let walk_toplevel ctx mpath (vb : Typedtree.value_binding) =
  match single_var vb.Typedtree.vb_pat with
  | Some (_, txt) -> (
    let key = toplevel_key mpath txt in
    match rhs_shape ctx vb.Typedtree.vb_expr with
    | Sfun ->
      (* the key was pre-claimed during registration, so build directly:
         a memoized synth would skip the body *)
      build_fun ctx ~key ~name:txt vb.Typedtree.vb_expr
    | _ ->
      (* module-initialization code: calls and taint here run once at
         program start; give it a definition of its own *)
      let e = vb.Typedtree.vb_expr in
      let frame =
        push_frame ctx ~key ~name:key
          ~loc:(loc_of ctx e.Typedtree.exp_loc)
          ~span:(span_of ctx e.Typedtree.exp_loc)
      in
      walk_expr ctx e;
      frame.f_returns <- resolve_tail ctx e;
      ignore (pop_frame ctx))
  | None ->
    let e = vb.Typedtree.vb_expr in
    let l = loc_of ctx e.Typedtree.exp_loc in
    let key =
      Printf.sprintf "%s.<bind:%d:%d>" (Names.key_of_components mpath) l.Names.line
        l.Names.col
    in
    let frame =
      push_frame ctx ~key ~name:key ~loc:l ~span:(span_of ctx e.Typedtree.exp_loc)
    in
    walk_expr ctx e;
    ignore frame;
    ignore (pop_frame ctx)

let rec walk_structure ctx mpath (items : Typedtree.structure_item list) =
  (* pass 1: register every top-level binding of this structure, so
     forward references (and let rec) resolve *)
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) -> List.iter (register_toplevel ctx mpath) vbs
      | _ -> ())
    items;
  (* pass 2: walk bodies *)
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_value (_, vbs) -> List.iter (walk_toplevel ctx mpath) vbs
      | Typedtree.Tstr_module mb -> walk_module ctx mpath mb
      | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module ctx mpath) mbs
      | Typedtree.Tstr_include incl ->
        walk_module_expr ctx mpath incl.Typedtree.incl_mod
      | Typedtree.Tstr_eval (e, _) ->
        let l = loc_of ctx e.Typedtree.exp_loc in
        let key =
          Printf.sprintf "%s.<init:%d:%d>" (Names.key_of_components mpath) l.Names.line
            l.Names.col
        in
        let frame =
          push_frame ctx ~key ~name:key ~loc:l ~span:(span_of ctx e.Typedtree.exp_loc)
        in
        ignore frame;
        walk_expr ctx e;
        ignore (pop_frame ctx)
      | _ -> ())
    items

and walk_module ctx mpath (mb : Typedtree.module_binding) =
  let name =
    match mb.Typedtree.mb_name.Location.txt with Some n -> n | None -> "_"
  in
  walk_module_expr ctx (mpath @ [ name ]) mb.Typedtree.mb_expr

and walk_module_expr ctx mpath (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_structure str -> walk_structure ctx mpath str.Typedtree.str_items
  | Typedtree.Tmod_constraint (me, _, _, _) -> walk_module_expr ctx mpath me
  | Typedtree.Tmod_functor (_, body) -> walk_module_expr ctx mpath body
  | _ -> ()

(* --- entry point ----------------------------------------------------- *)

let of_structure ~unit_name ~source (str : Typedtree.structure) =
  let ctx = make ~unit_name ~source in
  ctx.cx_iter <-
    { default with
      Tast_iterator.expr =
        (fun self e ->
          pre_expr ctx e;
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_function _ -> ()  (* walked in its own frame *)
          | _ -> default.Tast_iterator.expr self e)
    };
  walk_structure ctx [ unit_name ] str.Typedtree.str_items;
  { u_name = unit_name;
    u_source = source;
    u_defs = List.rev ctx.cx_defs;
    u_sites = List.rev ctx.cx_sites;
    u_globals = List.rev ctx.cx_globals }
