(* Lint fixture: the same Atomic primitives, each quieted by an escape
   comment — the shape lib/parallel would need if it were not
   allowlisted.  Atomic.get is a plain read and never fires. *)

(* radio-lint: allow nondet-atomic *)
let hits = Atomic.make 0

let record () = Atomic.incr hits (* radio-lint: allow nondet-atomic — fixture *)

(* radio-lint: allow nondet-atomic *)
let reset () = Atomic.set hits 0

let peek () = Atomic.get hits
