(* Fixture: an escape behind a defaulted optional parameter.  The default
   of [?(scale = 1)] wraps the rest of [add] in its own binding; the write
   to the module-level counter under it is still every task's. *)

let total = ref 0

let add ?(scale = 1) x = total := !total + (scale * x)

let run xs =
  Parallel.map_ordered ~jobs:2
    (fun x ->
      add x;
      x)
    xs
