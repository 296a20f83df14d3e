(** Shared plumbing for the experiment harness: table rendering, parameter
    grids, adversary construction, and normalization helpers. *)

(** {1 Structured results}

    Experiments build a [result] — data, not prose — and rendering to the
    historical text tables happens here, centrally.  Keeping the two apart
    is what lets the runner fan experiments (and their replicates) out
    across domains and still merge output byte-identically. *)

type block =
  | Text of string  (** one full line *)
  | Blank  (** a blank line *)
  | Table of { header : string list; rows : string list list }

type result = {
  blocks : block list;  (** rendered top to bottom *)
  total_rounds : int;
      (** simulated radio rounds consumed, summed over the experiment's
          runs; [0] when the experiment has no natural round count *)
}

val result : ?total_rounds:int -> block list -> result

val text : string -> block

val textf : ('a, unit, string, block) format4 -> 'a
(** [Printf]-style {!text}. *)

val table : header:string list -> string list list -> block

val render : Format.formatter -> result -> unit
(** Render every block: [Text] lines, blank separators, and aligned ASCII
    tables, exactly as the pre-structured experiments printed them. *)

val render_to_string : result -> string
(** {!render} into a string.  A test seam: the suites compare rendered
    experiment output without a formatter of their own. *)

(** {1 Replicate fan-out}

    Experiments run their independent units of work — seed-indexed trials,
    parameter-grid points — through these combinators instead of serial
    [List.map]/[List.init] loops.  Inside a {!Parallel.run} scope (the
    runner installs one) the closures execute on the shared domain pool;
    the merge is order-preserving, so output is byte-identical to the
    serial run for any job count.  Each closure must derive its randomness
    from its own argument (trial index or grid point), never from shared
    state. *)

val sweep : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [sweep ~jobs f xs] is [List.map f xs] fanned out through the pool with
    an order-preserving merge ({!Parallel.map_ordered}). *)

val replicates : jobs:int -> trials:int -> (int -> 'a) -> 'a list
(** [replicates ~jobs ~trials f] runs [f 1 .. f trials] (1-based, matching
    the historical trial loops) through the pool and returns the results in
    trial order.  Exceptions propagate from the earliest-submitted failing
    trial. *)

val fame_nodes_for : t:int -> channels_used:int -> channels:int -> int
(** A node count comfortably above {!Ame.Params.nodes_required}. *)

val schedule_jam : channels:int -> budget:int -> Ame.Oracle.t -> Radio.Adversary.t

val random_jam : seed:int64 -> channels:int -> budget:int -> Radio.Adversary.t

val default_messages : int * int -> string

type fame_point = {
  rounds : int;
  moves : int;
  delivered : int;
  failed : int;
  vc : int option;
  diverged : bool;
}

val run_fame :
  ?channels_used:int ->
  ?play:Ame.Fame.play ->
  ?feedback_mode:Ame.Fame.feedback_mode ->
  ?adversary:(Ame.Oracle.t -> Radio.Adversary.t) ->
  seed:int64 ->
  n:int ->
  channels:int ->
  t:int ->
  pairs:(int * int) list ->
  unit ->
  fame_point
