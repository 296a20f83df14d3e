(* Correctness checks: pure functions from a workload's outputs to the
   violations found in them ([[]] = correct).  The benchmark runs them on
   every operation; the tests feed them tampered results. *)

module Mux = Secure_channel.Mux

let fail_if cond fmt = Printf.ksprintf (fun msg -> if cond then [ msg ] else []) fmt

(* Section 7's guarantees hold on every run; under a null adversary every
   offered message is also delivered and acknowledged. *)
let svc ~null (r : Mux.result) =
  let s = r.Mux.stats in
  fail_if (s.Mux.forged_accepts <> 0) "forged_accepts = %d" s.Mux.forged_accepts
  @ fail_if (s.Mux.plaintext_leaks <> 0) "plaintext_leaks = %d" s.Mux.plaintext_leaks
  @ fail_if (not r.Mux.engine.Radio.Engine.completed) "engine hit max_rounds"
  @ fail_if
      (null && not (s.Mux.delivered = s.Mux.offered && s.Mux.acked = s.Mux.offered))
      "null adversary: offered %d, delivered %d, acked %d" s.Mux.offered s.Mux.delivered
      s.Mux.acked

(* Not diverged, no failed pair, and every payload is the one sent. *)
let fame ~expected (o : Ame.Fame.outcome) =
  let cmp (a, _) (b, _) = Rgraph.Digraph.edge_compare a b in
  let delivered = List.sort cmp o.Ame.Fame.delivered in
  fail_if o.Ame.Fame.diverged "f-AME diverged"
  @ fail_if (o.Ame.Fame.failed <> []) "%d failed pairs" (List.length o.Ame.Fame.failed)
  @ fail_if
      (not
         (List.equal
            (fun ((v, w), a) ((v', w'), b) -> v = v' && w = w' && String.equal a b)
            delivered (List.sort cmp expected)))
      "delivered payloads differ from the messages sent"

(* One experiment of the sweep: [Ok digest] of its rendered tables, or
   [Error] with what it raised.  It passes when it returned and its digest
   is the pinned one. *)
let experiment ~pinned (id, outcome) =
  match (outcome, List.assoc_opt id pinned) with
  | Ok digest, Some pin when String.equal digest pin -> []
  | Ok digest, Some pin -> [ Printf.sprintf "%s: digest %s, pinned %s" id digest pin ]
  | Ok digest, None -> [ Printf.sprintf "%s: digest %s, none pinned" id digest ]
  | Error raised, _ -> [ Printf.sprintf "%s raised %s" id raised ]

(* Every pinned experiment ran, returned, and rendered its pinned output. *)
let sweep ~pinned experiments =
  List.concat_map
    (fun (id, _) -> if List.mem_assoc id experiments then [] else [ id ^ " did not run" ])
    pinned
  @ List.concat_map (experiment ~pinned) experiments

(* Every run of one seed renders the same output. *)
let same_digest ~expect digest =
  fail_if (not (String.equal expect digest)) "output digest %s differs from the first run's %s"
    digest expect
