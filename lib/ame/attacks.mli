(** Protocol-aware adversary strategies against AME protocols.

    Each constructor takes the schedule {!Oracle} so the strategy can aim at
    the deterministic part of the schedule — exactly the power the paper's
    adversary has.  None of them sees honest random choices. *)

type preference = Prefer_edges | Prefer_nodes | Any
(** Which proposal items to jam first during message-transmission rounds. *)

val schedule_jammer :
  Oracle.t -> channels:int -> budget:int -> prefer:preference -> Radio.Adversary.t
(** Jams up to [budget] in-use channels of every posted message round,
    ordered by [prefer]; jams channels 0..budget-1 in all other (feedback)
    rounds. *)

val triangle_jammer :
  Oracle.t -> channels:int -> budget:int -> triple_of:(int -> int option) -> Radio.Adversary.t
(** The Section 5 lower-bound adversary against direct exchange: jams any
    channel carrying an edge whose two endpoints belong to the same triple
    ([triple_of] maps a node to its triple index).  With t disjoint triples
    it keeps all intra-triple edges undelivered, forcing a disruption graph
    with vertex cover 2t against surrogate-free protocols. *)
