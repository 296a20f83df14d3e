(* Deterministic fan-out across domains (OCaml 5 stdlib only).

   The contract that the whole experiment layer leans on: [map_ordered]
   merges results back in submission order, so a pure task list produces
   output byte-identical to the serial run no matter how the scheduler
   interleaves the domains.  Tasks must therefore not share mutable state;
   each replicate derives its own [Prng.Rng] from an explicit seed.

   [run ~jobs f] installs one shared pool for the dynamic extent of [f];
   every [map_ordered] call underneath it — at any nesting depth, from any
   pool domain — feeds that same pool, so the domain budget is global
   instead of per-level.  Outside a [run] scope, [map_ordered] falls back
   to a transient pool (or a plain serial map for [jobs <= 1]). *)

module Pool = Pool
module Clock = Clock

let default_jobs () = Domain.recommended_domain_count ()

(* The ambient pool installed by [run].  Read from worker domains (hence
   atomic), written only by the single outermost [run] caller. *)
let ambient : Pool.t option Atomic.t = Atomic.make None

let run ~jobs f =
  match Atomic.get ambient with
  | Some _ ->
    (* Nested [run]: the budget is already global; reuse the pool. *)
    f ()
  | None ->
    (* More domains than cores never helps in OCaml 5 (every minor GC is a
       stop-the-world sync across domains), so oversubscription is clamped
       here.  Results are identical either way; only wall-clock changes. *)
    let jobs = min (max jobs 1) (default_jobs ()) in
    if jobs <= 1 then f ()
    else
      Pool.with_pool ~domains:jobs (fun pool ->
          Atomic.set ambient (Some pool);
          Fun.protect ~finally:(fun () -> Atomic.set ambient None) f)

let map_ordered ~jobs f xs =
  match Atomic.get ambient with
  | Some pool -> Pool.map_ordered pool f xs
  | None ->
    let jobs = min jobs (default_jobs ()) in
    if jobs <= 1 then List.map f xs
    else
      match xs with
      | [] -> []
      | [ x ] -> [ f x ]
      | _ ->
        Pool.with_pool ~domains:(min jobs (List.length xs)) (fun pool ->
            Pool.map_ordered pool f xs)
