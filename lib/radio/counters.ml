(* One [Parallel.Tally] field per counter, in the order of [t]'s fields. *)

type t = {
  transmits : int;
  listens : int;
  idles : int;
  sleeps : int;
  series : int;
  resumes : int;
  hops : int;
  wake_pushes : int;
  wake_runs : int;
  harvested : int;
  rounds_resolved : int;
  rounds_skipped : int;
}

let tally = Parallel.Tally.create 12

let to_array c =
  [| c.transmits; c.listens; c.idles; c.sleeps; c.series; c.resumes; c.hops; c.wake_pushes;
     c.wake_runs; c.harvested; c.rounds_resolved; c.rounds_skipped |]

let of_array a =
  { transmits = a.(0); listens = a.(1); idles = a.(2); sleeps = a.(3); series = a.(4);
    resumes = a.(5); hops = a.(6); wake_pushes = a.(7); wake_runs = a.(8);
    harvested = a.(9); rounds_resolved = a.(10); rounds_skipped = a.(11) }

let suspensions c = c.transmits + c.listens + c.idles + c.sleeps + c.series

let snapshot () = of_array (Parallel.Tally.totals tally)

let diff a b = of_array (Array.map2 ( - ) (to_array a) (to_array b))

let add_run c = Array.iteri (fun i k -> Parallel.Tally.add tally i k) (to_array c)

let render c =
  Printf.sprintf
    "engine: suspend=%d (transmit=%d listen=%d idle=%d sleep=%d series=%d) resume=%d hops=%d \
     wake=%d wake_runs=%d rounds=%d skipped=%d harvested=%d"
    (suspensions c) c.transmits c.listens c.idles c.sleeps c.series c.resumes c.hops
    c.wake_pushes c.wake_runs c.rounds_resolved c.rounds_skipped c.harvested
