(* Wall-clock time for the observability layer.  The simulator itself stays
   clock-free (simulated rounds only); only runners measure real time, so
   this is the single place the tree touches [Unix]. *)

let now_s () = Unix.gettimeofday ()

let time f =
  let t0 = now_s () in
  let y = f () in
  (y, now_s () -. t0)
