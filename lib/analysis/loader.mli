(** Discovery and loading of the [.cmt] typedtrees dune produces under
    [_build/default/**/.*.objs/byte/].

    Loading is the analyzer's only parallel phase: the sorted path list
    goes through [Parallel.map_ordered], whose ordered merge keeps the
    unit list — and hence everything downstream — deterministic for any
    [jobs]. *)

type error = {
  e_path : string;
  e_msg : string;
}

type t = {
  units : Summary.t list;
  errors : error list;
}

val regen_hint : string
(** User-facing recovery hint: ["run `dune build @check` ..."]. *)

val find_cmts : build_dir:string -> roots:string list -> string list
(** All [*.cmt] files under [build_dir/<root>] for each root, descending
    into dune's dot-directories; sorted. *)

val source_text : source_root:string -> string -> string option
(** [source_text ~source_root rel] reads the source file a cmt refers to,
    for escape-comment scanning; tries [source_root/rel] and, because
    generated wrappers sometimes carry one extra leading path component,
    [source_root/<rel minus its first component>]. *)

val load : build_dir:string -> roots:string list -> jobs:int -> t
