(* Fixture: escape comments that suppress nothing.  A blank line has
   detached the first from its print, as a reflow might. *)

(* radio-lint: allow io-print *)

let report n = Printf.printf "n = %d\n" n

(* Only the first of the two rules granted here is used. *)
let first xs = List.hd xs (* radio-lint: allow partial-list io-print *)

(* radio-lint: allow stale-escape *)
let quiet = ()
