(* Deterministic fan-out across domains (OCaml 5 stdlib only).

   The contract that the whole experiment layer leans on: [map_ordered]
   merges results back in submission order, so a pure task list produces
   output byte-identical to the serial run no matter how the scheduler
   interleaves the domains.  Tasks must therefore not share mutable state;
   each replicate derives its own [Prng.Rng] from an explicit seed.

   [run ~jobs f] installs one scope for the dynamic extent of [f]: a
   shared pool, or a serial marker when the budget is one domain.  Every
   [map_ordered] call underneath it — at any nesting depth, from any pool
   domain — feeds that same pool (or maps serially), so the domain budget
   is global instead of per-level.  Outside any scope, [map_ordered] opens
   a transient scope of its own for the duration of the call. *)

module Pool = Pool
module Clock = Clock
module Tally = Tally

let default_jobs () = Domain.recommended_domain_count ()

type scope = Serial | Pooled of Pool.t

(* The ambient scope installed by [run].  Read from worker domains (hence
   atomic), written only by the single outermost [run] caller. *)
let ambient : scope option Atomic.t = Atomic.make None

let within scope f =
  Atomic.set ambient (Some scope);
  Fun.protect ~finally:(fun () -> Atomic.set ambient None) f

let run ~jobs f =
  match Atomic.get ambient with
  | Some _ ->
    (* Nested [run]: the budget is already global; reuse the scope. *)
    f ()
  | None ->
    (* More domains than cores never helps in OCaml 5 (every minor GC is a
       stop-the-world sync across domains), so oversubscription is clamped
       here.  Results are identical either way; only wall-clock changes. *)
    let jobs = min (max jobs 1) (default_jobs ()) in
    if jobs <= 1 then within Serial f
    else Pool.with_pool ~domains:jobs (fun pool -> within (Pooled pool) f)

let budget () =
  match Atomic.get ambient with
  | Some (Pooled pool) -> Pool.size pool
  | Some Serial | None -> 1

let rec map_ordered ~jobs f xs =
  match Atomic.get ambient with
  | Some Serial -> List.map f xs
  | Some (Pooled pool) -> Pool.map_ordered pool f xs
  | None -> (
    match xs with
    | [] | [ _ ] -> List.map f xs
    | _ -> run ~jobs:(min jobs (List.length xs)) (fun () -> map_ordered ~jobs f xs))
