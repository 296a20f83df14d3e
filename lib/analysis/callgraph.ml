(* Whole-repo linking of unit summaries, plus the two interprocedural
   fixpoints.

   The writes-effect fixpoint answers "which values does calling [f]
   mutate, described from [f]'s own frame?" — parameters translate
   through argument origins at each call site, allocation sites pass
   through unchanged, and captured-value writes resolve against the
   frame that owns the binding.  The one subtlety is freshness: a callee
   that allocates a table and mutates it is pure from the outside, so a
   site is dropped at the lift if its allocation lies within the
   callee's own span (fresh per call).

   The taint fixpoint propagates [Pure < Det_local < Tainted] backwards
   over calls, with a per-definition cap for files inside the sanctioned
   boundary (lib/parallel may use the clock and locks without tainting
   its callers — that is its contract).

   Both fixpoints iterate definitions in sorted-key order and record a
   witness the first time a fact is derived, so the reconstructed
   explanation chains are deterministic. *)

type res =
  | RFunc of string
  | RSite of Summary.site_key
  | RUnknown

type target =
  | TParam of int
  | TSite of Summary.site_key
  | TGlobal of string
  | TOuter of Summary.outer

type witness =
  | Direct of Names.loc * string
  | Via of string * Names.loc * target
      (** (callee, call site, the callee-frame target this lifted from) *)

type eff = {
  etbl : (target, witness) Hashtbl.t;
  mutable eorder : target list;  (* reversed insertion order *)
}

type t = {
  defs : (string, Summary.def) Hashtbl.t;
  sites : (Summary.site_key, Summary.site) Hashtbl.t;
  globals : (string, Summary.origin) Hashtbl.t;
  def_order : string list;
  effects : (string, eff) Hashtbl.t;
  tlevels : (string, Names.taint) Hashtbl.t;
}

let def t key = Hashtbl.find_opt t.defs key

let site t key = Hashtbl.find_opt t.sites key

let defs_in_order t = List.filter_map (def t) t.def_order

(* --- alias resolution ------------------------------------------------ *)

(* Chase a value origin to a function or allocation site through
   top-level aliases ([let go = Impl.run]) and through the returns of
   non-function bindings ([let table = make_table ()]). *)
let resolve t origin =
  let rec go seen o =
    match o with
    | Summary.OSite s -> RSite s
    | Summary.OFunc k -> RFunc k
    | Summary.OGlobal g ->
      if List.mem g seen then RUnknown
      else begin
        let seen = g :: seen in
        match Hashtbl.find_opt t.globals g with
        | Some (Summary.OGlobal g') when g' = g -> (
          (* opaque top-level binding: chase what its initializer returns *)
          match Hashtbl.find_opt t.defs g with
          | Some d when not d.Summary.d_fun -> go seen d.Summary.d_returns
          | _ -> RUnknown)
        | Some o' -> go seen o'
        | None -> (
          (* nested-closure keys are not globals; they are defs directly *)
          match Hashtbl.find_opt t.defs g with
          | Some d when d.Summary.d_fun -> RFunc g
          | Some d -> go seen d.Summary.d_returns
          | None -> RUnknown)
      end
    | Summary.OReturn k ->
      let tag = "ret:" ^ k in
      if List.mem tag seen then RUnknown
      else (
        match go (tag :: seen) (Summary.OGlobal k) with
        | RFunc k' -> (
          match Hashtbl.find_opt t.defs k' with
          | Some d -> (
            (* A site the function both allocates and returns is fresh
               per call (a factory) — not a stable shared name.  A site
               allocated elsewhere (an accessor handing out shared
               state) resolves normally. *)
            match go (tag :: seen) d.Summary.d_returns with
            | RSite s -> (
              match Hashtbl.find_opt t.sites s with
              | Some site
                when Names.loc_in_span site.Summary.s_loc d.Summary.d_span ->
                RUnknown
              | _ -> RSite s)
            | r -> r)
          | None -> RUnknown)
        | RSite _ | RUnknown -> RUnknown)
    | Summary.OParam _ | Summary.OOuter _ | Summary.OOther -> RUnknown
  in
  go [] origin

(* The definition a call edge lands on, through aliases. *)
let callee_def t key =
  match resolve t (Summary.OGlobal key) with
  | RFunc k -> Hashtbl.find_opt t.defs k
  | RSite _ | RUnknown -> None

(* --- the writes-effect fixpoint -------------------------------------- *)

(* Translate an origin observed inside frame [f] into one of [f]'s
   effect targets; [None] means the write stays local to a call. *)
let target_in_frame t origin =
  match origin with
  | Summary.OParam i -> Some (TParam i)
  | Summary.OSite s -> Some (TSite s)
  | Summary.OOuter o -> Some (TOuter o)
  | Summary.OGlobal g -> (
    match resolve t origin with
    | RSite s -> Some (TSite s)
    | RFunc _ -> None
    | RUnknown -> Some (TGlobal g))
  | Summary.OReturn _ -> (
    match resolve t origin with RSite s -> Some (TSite s) | _ -> None)
  | Summary.OFunc _ | Summary.OOther -> None

(* The argument feeding the callee's [j]-th parameter: labelled args
   match by name, positional args by position among positionals. *)
let arg_for_param params (args : (Asttypes.arg_label * Summary.origin) list) j =
  match List.nth_opt params j with
  | None -> None
  | Some (Asttypes.Labelled s) | Some (Asttypes.Optional s) ->
    List.find_map
      (fun (l, o) ->
        match l with
        | (Asttypes.Labelled s' | Asttypes.Optional s') when s' = s -> Some o
        | _ -> None)
      args
  | Some Asttypes.Nolabel ->
    let rec count_nolabel k i = function
      | [] -> k
      | Asttypes.Nolabel :: rest -> if i = 0 then k else count_nolabel (k + 1) (i - 1) rest
      | _ :: rest -> count_nolabel k i rest
    in
    let pos = count_nolabel 0 j params in
    let positional =
      List.filter_map
        (fun (l, o) -> match l with Asttypes.Nolabel -> Some o | _ -> None)
        args
    in
    List.nth_opt positional pos

(* Lift one of callee [g]'s targets into caller [f] at call [c]. *)
let lift t (f : Summary.def) (g : Summary.def) (c : Summary.call) tg =
  match tg with
  | TParam j -> (
    match arg_for_param g.Summary.d_params c.Summary.c_args j with
    | Some o -> target_in_frame t o
    | None -> None)
  | TSite s -> (
    match Hashtbl.find_opt t.sites s with
    | Some site when Names.loc_in_span site.Summary.s_loc g.Summary.d_span ->
      None  (* allocated inside g: fresh per call *)
    | _ -> Some tg)
  | TGlobal _ -> Some tg
  | TOuter o ->
    if o.Summary.oframe = f.Summary.d_key then (
      match o.Summary.obase with
      | Summary.Oparam i -> Some (TParam i)
      | Summary.Oopaque -> None (* one of f's own locals: call-local write *))
    else Some tg

let eff_of t key =
  match Hashtbl.find_opt t.effects key with
  | Some e -> e
  | None ->
    let e = { etbl = Hashtbl.create 8; eorder = [] } in
    Hashtbl.replace t.effects key e;
    e

let add_effect t key tg w =
  let e = eff_of t key in
  if Hashtbl.mem e.etbl tg then false
  else begin
    Hashtbl.replace e.etbl tg w;
    e.eorder <- tg :: e.eorder;
    true
  end

let effects t key =
  match Hashtbl.find_opt t.effects key with
  | None -> []
  | Some e ->
    List.rev_map
      (fun tg ->
        match Hashtbl.find_opt e.etbl tg with
        | Some w -> (tg, w)
        | None -> (tg, Direct (Names.{ file = ""; line = 0; col = 0 }, "?")))
      e.eorder

let compute_effects t =
  (* seed with each definition's own writes *)
  List.iter
    (fun (d : Summary.def) ->
      List.iter
        (fun (o, loc, what) ->
          match target_in_frame t o with
          | Some tg -> ignore (add_effect t d.Summary.d_key tg (Direct (loc, what)))
          | None -> ())
        d.Summary.d_writes)
    (defs_in_order t);
  (* propagate over call edges until stable *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Summary.def) ->
        List.iter
          (fun (c : Summary.call) ->
            match callee_def t c.Summary.c_callee with
            | None -> ()
            | Some g ->
              List.iter
                (fun (tg, _) ->
                  match lift t f g c tg with
                  | Some tg' ->
                    if add_effect t f.Summary.d_key tg'
                         (Via (g.Summary.d_key, c.Summary.c_loc, tg))
                    then changed := true
                  | None -> ())
                (effects t g.Summary.d_key))
          f.Summary.d_calls)
      (defs_in_order t)
  done

(* --- the taint fixpoint ---------------------------------------------- *)

let taint_of t key =
  match Hashtbl.find_opt t.tlevels key with Some lvl -> lvl | None -> Names.Pure

let compute_taint t ~capped =
  (* seed with each definition's direct sources *)
  List.iter
    (fun (d : Summary.def) ->
      let lvl =
        match d.Summary.d_taint with
        | Some _ -> Names.Tainted
        | None -> if d.Summary.d_det then Names.Det_local else Names.Pure
      in
      Hashtbl.replace t.tlevels d.Summary.d_key lvl)
    (defs_in_order t);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Summary.def) ->
        if taint_of t f.Summary.d_key <> Names.Tainted then
          List.iter
            (fun (c : Summary.call) ->
              match callee_def t c.Summary.c_callee with
              | None -> ()
              | Some g ->
                let glvl = taint_of t g.Summary.d_key in
                (* the sanctioned boundary: taint inside an allowed file is
                   that module's contract, not the caller's problem *)
                let glvl =
                  if capped g && not (Names.taint_le glvl Names.Det_local) then
                    Names.Det_local
                  else glvl
                in
                let cur = taint_of t f.Summary.d_key in
                let merged = Names.taint_max cur glvl in
                if merged <> cur then begin
                  Hashtbl.replace t.tlevels f.Summary.d_key merged;
                  changed := true
                end)
            f.Summary.d_calls)
      (defs_in_order t)
  done

(* --- witness chains --------------------------------------------------- *)

let write_chain t key tg =
  let rec go seen key tg =
    if List.length seen > 32 || List.mem (key, tg) seen then []
    else
      let seen = (key, tg) :: seen in
      match Hashtbl.find_opt t.effects key with
      | None -> []
      | Some e -> (
        match Hashtbl.find_opt e.etbl tg with
        | Some (Direct (loc, what)) -> [ (key, loc, "writes (" ^ what ^ ")") ]
        | Some (Via (callee, loc, inner)) ->
          (key, loc, "calls " ^ callee) :: go seen callee inner
        | None -> [])
  in
  go [] key tg

(* --- construction ----------------------------------------------------- *)

let build ~capped (units : Summary.t list) =
  let defs = Hashtbl.create 1024 in
  let sites = Hashtbl.create 256 in
  let globals = Hashtbl.create 512 in
  List.iter
    (fun (u : Summary.t) ->
      List.iter
        (fun (d : Summary.def) -> Hashtbl.replace defs d.Summary.d_key d)
        u.Summary.u_defs;
      List.iter
        (fun (s : Summary.site) -> Hashtbl.replace sites s.Summary.s_key s)
        u.Summary.u_sites;
      List.iter (fun (k, o) -> Hashtbl.replace globals k o) u.Summary.u_globals)
    units;
  let def_order =
    List.sort compare
      (List.concat_map
         (fun (u : Summary.t) ->
           List.map (fun (d : Summary.def) -> d.Summary.d_key) u.Summary.u_defs)
         units)
  in
  let t =
    { defs;
      sites;
      globals;
      def_order;
      effects = Hashtbl.create 1024;
      tlevels = Hashtbl.create 1024 }
  in
  compute_effects t;
  compute_taint t ~capped;
  t
