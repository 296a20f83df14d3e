(* Lint fixture: Atomic cells created or mutated outside the parallel
   runtime (lib/parallel). *)

let hits = Atomic.make 0

let record () = Atomic.incr hits

let reset () = Atomic.set hits 0

let swap v = Atomic.exchange hits v

let bump n = Atomic.fetch_and_add hits n
