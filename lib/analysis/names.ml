(* Canonical naming and the primitive-classification tables.

   Typedtree paths arrive in two spellings for the same definition —
   through dune's alias module ("Experiments.Common.replicates") or the
   mangled unit name ("Experiments__Common.replicates") — and the whole
   analysis rests on both mapping to one canonical key.  [normalize]
   splits every component on the "__" mangling separator, so both
   spellings become ["Experiments"; "Common"; "replicates"].

   The tables at the bottom are the semantic counterpart of radio_lint's
   syntactic identifier rules: which stdlib calls allocate mutable state,
   which mutate (and which argument is the mutated one), which are
   nondeterminism sources, and which calls are the pool boundary. *)

type loc = {
  file : string;
  line : int;
  col : int;
}

type span = {
  sp_file : string;
  sp_bline : int;
  sp_bcol : int;
  sp_eline : int;
  sp_ecol : int;
}

let loc_of ~file (l : Location.t) =
  let p = l.Location.loc_start in
  { file; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol }

let span_of ~file (l : Location.t) =
  let b = l.Location.loc_start and e = l.Location.loc_end in
  { sp_file = file;
    sp_bline = b.Lexing.pos_lnum;
    sp_bcol = b.Lexing.pos_cnum - b.Lexing.pos_bol;
    sp_eline = e.Lexing.pos_lnum;
    sp_ecol = e.Lexing.pos_cnum - e.Lexing.pos_bol }

let null_span = { sp_file = ""; sp_bline = 0; sp_bcol = 0; sp_eline = 0; sp_ecol = 0 }

let loc_in_span (l : loc) (s : span) =
  l.file = s.sp_file
  && (l.line > s.sp_bline || (l.line = s.sp_bline && l.col >= s.sp_bcol))
  && (l.line < s.sp_eline || (l.line = s.sp_eline && l.col <= s.sp_ecol))

let pp_loc fmt (l : loc) = Format.fprintf fmt "%s:%d:%d" l.file l.line l.col

(* --- canonical paths ------------------------------------------------ *)

(* "Experiments__Common" -> ["Experiments"; "Common"]; "Parallel__" ->
   ["Parallel"] (the trailing separator of dune's alias-only units). *)
let split_mangled comp =
  let n = String.length comp in
  let out = ref [] and start = ref 0 in
  let flush stop =
    if stop > !start then out := String.sub comp !start (stop - !start) :: !out
  in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
      flush !i;
      (* skip the full run of underscores *)
      while !i < n && comp.[!i] = '_' do incr i done;
      start := !i
    end
    else incr i
  done;
  flush n;
  List.rev !out

let rec flatten_path = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply (p, _) -> flatten_path p
  | Path.Pextra_ty (p, _) -> flatten_path p

let normalize p = List.concat_map split_mangled (flatten_path p)

let key_of_components comps = String.concat "." comps

let normalize_unit modname = key_of_components (split_mangled modname)

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

(* --- mutable allocation sites --------------------------------------- *)

type alloc_kind =
  | Ref
  | Arr
  | Byt
  | Tbl
  | Buf
  | Atom
  | Mrec
  | Que
  | Stk
  | Dls

let alloc_kind_name = function
  | Ref -> "ref"
  | Arr -> "array"
  | Byt -> "bytes"
  | Tbl -> "hashtbl"
  | Buf -> "buffer"
  | Atom -> "atomic"
  | Mrec -> "mutable-record"
  | Que -> "queue"
  | Stk -> "stack"
  | Dls -> "domain-local"

(* Calls whose result is freshly allocated mutable state.  Producers that
   merely transform (map, append, ...) count too: what matters is that the
   bound value is mutable and distinct from its inputs. *)
let mutable_alloc path =
  match strip_stdlib path with
  | [ "ref" ] -> Some Ref
  | [ ("Array" | "ArrayLabels" | "Float" | "Floatarray");
      ( "make" | "create" | "create_float" | "init" | "make_matrix" | "make_float" | "copy"
      | "of_list" | "sub" | "append" | "concat" | "map" | "mapi" | "map2" ) ] ->
    Some Arr
  | [ ("Bytes" | "BytesLabels");
      ( "create" | "make" | "init" | "copy" | "of_string" | "sub" | "extend" | "cat"
      | "concat" ) ] ->
    Some Byt
  | [ "Hashtbl"; ("create" | "copy" | "of_seq") ]
  | [ "MoreLabels"; "Hashtbl"; ("create" | "copy" | "of_seq") ] ->
    Some Tbl
  | [ "Buffer"; "create" ] -> Some Buf
  | [ "Atomic"; "make" ] -> Some Atom
  | [ "Queue"; ("create" | "copy" | "of_seq") ] -> Some Que
  | [ "Stack"; ("create" | "copy" | "of_seq") ] -> Some Stk
  | [ "Domain"; "DLS"; "new_key" ] -> Some Dls
  | _ -> None

(* --- mutation primitives -------------------------------------------- *)

(* [mutates path] returns the positions (among the call's unlabelled
   arguments) of the values being mutated. *)
let mutates path =
  match strip_stdlib path with
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> Some [ 0 ]
  | [ ("Array" | "ArrayLabels" | "Floatarray"); ("set" | "unsafe_set" | "fill") ] ->
    Some [ 0 ]
  | [ ("Array" | "ArrayLabels"); ("sort" | "stable_sort" | "fast_sort" | "shuffle") ] ->
    Some [ 1 ]
  | [ ("Array" | "ArrayLabels"); "blit" ] -> Some [ 2 ]
  | [ ("Bytes" | "BytesLabels");
      ("set" | "unsafe_set" | "fill" | "unsafe_fill" | "set_uint8" | "set_uint16_le"
      | "set_uint16_be" | "set_int32_le" | "set_int32_be" | "set_int64_le" | "set_int64_be")
    ] ->
    Some [ 0 ]
  | [ ("Bytes" | "BytesLabels"); ("blit" | "blit_string" | "unsafe_blit") ] -> Some [ 2 ]
  | [ "String"; "blit" ] -> Some [ 2 ]
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
  | [ "MoreLabels"; "Hashtbl";
      ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") ] ->
    Some [ 0 ]
  | [ "Buffer";
      ( "add_char" | "add_string" | "add_bytes" | "add_substring" | "add_subbytes"
      | "add_utf_8_uchar" | "add_utf_16le_uchar" | "add_utf_16be_uchar" | "add_channel"
      | "add_buffer" | "clear" | "reset" | "truncate" ) ] ->
    Some [ 0 ]
  | [ "Atomic"; ("set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr" | "decr") ]
    ->
    Some [ 0 ]
  | [ "Queue"; ("push" | "add") ] -> Some [ 1 ]
  | [ "Queue"; ("pop" | "take" | "clear") ] -> Some [ 0 ]
  | [ "Queue"; "transfer" ] -> Some [ 0; 1 ]
  | [ "Stack"; "push" ] -> Some [ 1 ]
  | [ "Stack"; ("pop" | "clear") ] -> Some [ 0 ]
  | [ "Domain"; "DLS"; "set" ] -> Some [ 0 ]
  | _ -> None

(* --- determinism taint sources -------------------------------------- *)

type taint =
  | Pure
  | Det_local  (** deterministic given the merge discipline; owns local state *)
  | Tainted  (** clock, OS state, randomness, unordered traversal, raw domains *)

let taint_rank = function Pure -> 0 | Det_local -> 1 | Tainted -> 2

let taint_max a b = if taint_rank a >= taint_rank b then a else b

let taint_le a b = taint_rank a <= taint_rank b

(* [taint_source path] classifies an identifier reference; [Some msg]
   describes why touching it taints the caller. *)
let taint_source path =
  match strip_stdlib path with
  | "Random" :: _ -> Some "Stdlib.Random (unseeded randomness)"
  | [ "Sys"; ("time" | "getenv" | "getenv_opt" | "getcwd" | "readdir" | "command") ] ->
    Some ("Sys." ^ List.nth (strip_stdlib path) 1 ^ " (OS state)")
  | ("Unix" | "UnixLabels") :: _ -> Some "Unix (wall clock / OS state)"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ]
  | [ "MoreLabels"; "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some "polymorphic Hashtbl.hash (layout-dependent fingerprint)"
  | [ "Hashtbl";
      ( "iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" | "stats" | "randomize"
      | "rebuild" ) ]
  | [ "MoreLabels"; "Hashtbl";
      ( "iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" | "stats" | "randomize"
      | "rebuild" ) ] ->
    Some "unordered Hashtbl traversal"
  | [ "Domain"; ("spawn" | "join" | "self" | "cpu_relax" | "recommended_domain_count") ] ->
    Some "raw Domain primitive"
  | ("Mutex" | "Condition" | "Semaphore") :: _ -> Some "raw lock primitive"
  | [ ( "print_endline" | "print_string" | "print_newline" | "print_char" | "print_int"
      | "print_float" | "print_bytes" | "prerr_endline" | "prerr_string" | "prerr_newline"
      | "read_line" | "read_int" | "read_int_opt" | "stdin" | "stdout" | "stderr" ) ] ->
    Some "stdout/stderr/stdin I/O"
  | [ f ]
    when String.length f >= 5
         && (String.sub f 0 5 = "open_" || String.sub f 0 5 = "input"
            || String.sub f 0 5 = "close")
         || String.length f >= 6 && String.sub f 0 6 = "output" ->
    Some "channel I/O"
  | ("In_channel" | "Out_channel") :: _ -> Some "channel I/O"
  | [ "Printf"; ("printf" | "eprintf") ] | [ "Format"; ("printf" | "eprintf") ] ->
    Some "stdout/stderr printing"
  | [ "Format";
      ("std_formatter" | "err_formatter" | "print_string" | "print_newline" | "print_flush")
    ] ->
    Some "stdout/stderr printing"
  | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir" | "get_temp_dir_name") ] ->
    Some "temp-file I/O"
  | _ -> None

(* References that mark a function as at least [Det_local] without
   tainting it: per-domain storage and GC observability. *)
let det_local_source path =
  match strip_stdlib path with
  | "Domain" :: "DLS" :: _ -> true
  | "Gc" :: _ -> true
  | _ -> false

(* --- the pool boundary ---------------------------------------------- *)

(* [pool_entry path] recognizes a call that submits work to the shared
   domain pool and returns (display name, index of the task closure among
   the call's unlabelled arguments). *)
let pool_entry path =
  let ends_with suffix =
    let n = List.length path and m = List.length suffix in
    n >= m
    &&
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    drop (n - m) path = suffix
  in
  if ends_with [ "Parallel"; "Pool"; "map_ordered" ] then Some ("Pool.map_ordered", 1)
  else if ends_with [ "Parallel"; "map_ordered" ] then Some ("Parallel.map_ordered", 0)
  else if ends_with [ "Common"; "replicates" ] then Some ("Common.replicates", 0)
  else if ends_with [ "Common"; "sweep" ] then Some ("Common.sweep", 0)
  else None
