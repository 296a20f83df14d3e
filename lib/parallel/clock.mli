val now_s : unit -> float
(** Wall-clock seconds since the epoch ([Unix.gettimeofday]). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] is [(f (), elapsed-wall-clock-seconds)]. *)
