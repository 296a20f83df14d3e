(** Linear-scan reference lookups over an {!Ame.Schedule.t}'s public
    arrays.  They agree with the indexed lookups whenever those answer, and
    keep answering after a later build has retired the index. *)

val role_of : Ame.Schedule.t -> int -> Ame.Schedule.role
val witness_channel : Ame.Schedule.t -> int -> int option
