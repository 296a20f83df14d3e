(* Tests for the domain-pool runner: ordering, exception propagation, and
   the determinism contract (parallel output byte-identical to serial). *)

let check = Alcotest.check

(* Busy work whose duration varies by input, to scramble completion order
   across domains; the merge must restore submission order regardless. *)
let jittered_square x =
  let spin = 1000 * (17 - (x mod 17)) in
  let acc = ref 0 in
  for i = 1 to spin do
    acc := !acc + (i mod 7)
  done;
  ignore !acc;
  x * x

exception Boom of int

(* -- Pool: real domains, unclamped -- *)

let pool_ordering () =
  let xs = List.init 100 Fun.id in
  let expected = List.map jittered_square xs in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let got = Parallel.Pool.map_ordered pool jittered_square xs in
      check (Alcotest.list Alcotest.int) "order preserved" expected got)

let pool_empty () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      check (Alcotest.list Alcotest.int) "empty input" []
        (Parallel.Pool.map_ordered pool jittered_square []);
      check (Alcotest.list Alcotest.int) "singleton" [ 49 ]
        (Parallel.Pool.map_ordered pool jittered_square [ 7 ]))

let pool_exception () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      match
        Parallel.Pool.map_ordered pool
          (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
          [ 1; 2; 3; 4; 5; 6 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> check Alcotest.int "earliest failure wins" 3 x)

let pool_survives_task_failure () =
  (* A raising task must not kill the worker; the pool stays usable. *)
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      (try ignore (Parallel.Pool.map_ordered pool (fun _ -> raise (Boom 0)) [ 1; 2 ]) with
       | Boom _ -> ());
      check (Alcotest.list Alcotest.int) "pool reusable after failure" [ 2; 4; 6 ]
        (Parallel.Pool.map_ordered pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let pool_shutdown () =
  let pool = Parallel.Pool.create ~domains:2 in
  check Alcotest.int "size" 2 (Parallel.Pool.size pool);
  Parallel.Pool.shutdown pool;
  (* Idempotent. *)
  Parallel.Pool.shutdown pool

let pool_nested () =
  (* The tentpole contract: a task may submit to the pool it runs on.  The
     submitting task helps drain the queue instead of blocking a domain, so
     nesting can neither deadlock nor starve; both levels keep order. *)
  let expected =
    List.map
      (fun outer -> List.map (fun i -> jittered_square ((10 * outer) + i)) [ 0; 1; 2; 3 ])
      (List.init 8 Fun.id)
  in
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      let got =
        Parallel.Pool.map_ordered pool
          (fun outer ->
            Parallel.Pool.map_ordered pool
              (fun i -> jittered_square ((10 * outer) + i))
              [ 0; 1; 2; 3 ])
          (List.init 8 Fun.id)
      in
      check (Alcotest.list (Alcotest.list Alcotest.int)) "nested order preserved" expected got)

let pool_nested_exception () =
  (* An inner failure surfaces through both join points as the original
     exception, and the earliest inner failure wins. *)
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      match
        Parallel.Pool.map_ordered pool
          (fun outer ->
            Parallel.Pool.map_ordered pool
              (fun i -> if outer = 1 then raise (Boom ((10 * outer) + i)) else i)
              [ 0; 1; 2 ])
          [ 0; 1; 2 ]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> check Alcotest.int "earliest inner failure" 10 x)

(* -- map_ordered: the clamped convenience form -- *)

let map_ordered_matches_serial () =
  let xs = List.init 50 (fun i -> i - 25) in
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "jobs=%d equals List.map" jobs)
        (List.map jittered_square xs)
        (Parallel.map_ordered ~jobs jittered_square xs))
    [ 1; 2; 4; 64 ]

let map_ordered_serial_exception () =
  match Parallel.map_ordered ~jobs:1 (fun x -> raise (Boom x)) [ 9 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x -> check Alcotest.int "serial path raises" 9 x

(* -- scopes: the outermost budget wins -- *)

let domain_id () = (Domain.self () :> int)

let serial_scope_wins () =
  (* A [run ~jobs:1] scope is serial all the way down: a nested [run] with
     a larger budget reuses it, and every task stays on the caller. *)
  let caller = domain_id () in
  let ran_on, budget =
    Parallel.run ~jobs:1 (fun () ->
        Parallel.run ~jobs:2 (fun () ->
            ( Parallel.map_ordered ~jobs:2
                (fun x -> ignore (jittered_square x); domain_id ())
                (List.init 32 Fun.id),
              Parallel.budget () )))
  in
  check Alcotest.int "budget inside the serial scope" 1 budget;
  check Alcotest.bool "every task ran on the calling domain" true
    (List.for_all (Int.equal caller) ran_on);
  check Alcotest.int "no scope left behind" 1 (Parallel.budget ())

let transient_scope_shared () =
  (* Outside any scope, [map_ordered] opens one for its own extent, so a
     [run] inside a task reuses that budget instead of opening another. *)
  let expect = min 2 (Parallel.default_jobs ()) in
  let budgets =
    Parallel.map_ordered ~jobs:2
      (fun _ -> Parallel.run ~jobs:4 (fun () -> Parallel.budget ()))
      (List.init 8 Fun.id)
  in
  check (Alcotest.list Alcotest.int) "tasks see the transient budget"
    (List.init 8 (fun _ -> expect)) budgets

(* -- replicates combinator -- *)

let replicates_values () =
  (* 1-based trial indices, submission order, identical at every jobs. *)
  let expected = List.init 10 (fun i -> (i + 1) * (i + 1)) in
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "trials in order at jobs=%d" jobs)
        expected
        (Experiments.Common.replicates ~jobs ~trials:10 (fun trial -> trial * trial)))
    [ 1; 4 ]

let replicates_earliest_failure () =
  match Experiments.Common.replicates ~jobs:4 ~trials:8 (fun trial ->
      if trial >= 3 then raise (Boom trial) else trial)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom t -> check Alcotest.int "earliest trial wins" 3 t

(* -- determinism of the experiment layer -- *)

let rendered id ~jobs =
  match Experiments.Registry.find id with
  | None -> Alcotest.fail (id ^ " missing")
  | Some e ->
    Experiments.Common.render_to_string (e.Experiments.Registry.run ~quick:true ~jobs)

let experiment_determinism () =
  (* The acceptance bar for the whole runner: parallel fan-out renders the
     exact bytes of the serial run.  e4/e5 have genuinely parallel inner
     loops; e7/e16/e17 are the Common.replicates adopters whose trial loops
     and grids both fan out. *)
  List.iter
    (fun id ->
      check Alcotest.string
        (id ^ " byte-identical at jobs=4")
        (rendered id ~jobs:1) (rendered id ~jobs:4))
    [ "e4"; "e5"; "e7"; "e16"; "e17" ]

let e8_full_tier_jobs_parity () =
  (* Full-tier e8 reads the shared default DH group from two domains at
     once, so it fails unless that group is safe to read concurrently.  The
     parallel run goes first: nothing in this process has touched the group
     before it. *)
  match Experiments.Registry.find "e8" with
  | None -> Alcotest.fail "e8 missing"
  | Some e ->
    let render ~jobs =
      Format.asprintf "%a" Experiments.Runner.render
        (Experiments.Runner.run_one ~quick:false ~jobs e)
    in
    let parallel = render ~jobs:2 in
    check Alcotest.string "e8 full tier byte-identical at jobs=2" (render ~jobs:1) parallel

(* The simulated rounds of every quick experiment, which its rendered
   tables do not print (their hashes are pinned by the benchmark's
   paper-quick workload).  They sum to that workload's rounds per op. *)
let quick_rounds =
  [ ("e1", 3368); ("e2", 987); ("e3", 763); ("e4", 0); ("e5", 1470); ("e6", 5738);
    ("e7", 2265); ("e8", 5515); ("e9", 216); ("e10", 3298); ("e11", 2720); ("e12", 1510);
    ("e13", 1159); ("e14", 128); ("e15", 1661); ("e16", 2420); ("e17", 300) ]

let quick_total_rounds () =
  let outcomes = Experiments.Runner.run_many ~quick:true ~jobs:2 Experiments.Registry.all in
  let rounds (o : Experiments.Runner.outcome) =
    (o.experiment.Experiments.Registry.id, o.result.Experiments.Common.total_rounds)
  in
  let got = List.map rounds outcomes in
  check Alcotest.(list (pair string int)) "total_rounds" quick_rounds got

(* -- JSON emitter -- *)

let json_escaping () =
  check Alcotest.string "string escaping" {|"a\"b\\c\nd"|}
    (Experiments.Json.to_string (Experiments.Json.String "a\"b\\c\nd"));
  check Alcotest.string "control chars" {|"\u0001"|}
    (Experiments.Json.to_string (Experiments.Json.String "\001"));
  check Alcotest.string "nan is null" "null"
    (Experiments.Json.to_string (Experiments.Json.Float Float.nan))

let json_document () =
  let doc =
    Experiments.Json.Obj
      [ ("xs", Experiments.Json.List [ Experiments.Json.Int 1; Experiments.Json.Bool true ]);
        ("y", Experiments.Json.Null) ]
  in
  check Alcotest.string "compact object" {|{"xs":[1,true],"y":null}|}
    (Experiments.Json.to_string doc)

let runner_json_has_metrics () =
  match Experiments.Registry.find "e4" with
  | None -> Alcotest.fail "e4 missing"
  | Some e ->
    let outcomes = Experiments.Runner.run_many ~quick:true ~jobs:2 [ e ] in
    let doc = Experiments.Runner.json_of_outcomes ~quick:true ~jobs:2 outcomes in
    let s = Experiments.Json.to_string doc in
    let mem needle =
      let n = String.length needle and l = String.length s in
      let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "schema tag" true (mem {|"schema":"radio-experiments/v1"|});
    check Alcotest.bool "wall-clock metric" true (mem {|"wall_s":|});
    check Alcotest.bool "rounds metric" true (mem {|"total_rounds":|});
    check Alcotest.bool "table data" true (mem {|"header":|})

(* [Cache.Tally] sums every domain's block, the blocks of domains that
   have exited included, so the totals of one piece of work do not depend
   on the pool that ran it. *)
let tally_jobs_invariant () =
  let t = Cache.Tally.create 2 in
  let work jobs =
    let before = Cache.Tally.totals t in
    ignore
      (Parallel.run ~jobs (fun () ->
           Parallel.map_ordered ~jobs
             (fun i ->
               Cache.Tally.add t 0 1;
               Cache.Tally.add t 1 i)
             (List.init 64 Fun.id))
        : unit list);
    Array.map2 ( - ) (Cache.Tally.totals t) before
  in
  List.iter
    (fun jobs ->
      check Alcotest.(array int) (Printf.sprintf "totals at jobs=%d" jobs) [| 64; 2016 |]
        (work jobs))
    [ 1; 2; 4 ];
  let spawned = List.init 3 (fun i -> Domain.spawn (fun () -> Cache.Tally.add t 0 (i + 1))) in
  List.iter Domain.join spawned;
  check Alcotest.(array int) "exited domains folded in" [| 198; 6048 |] (Cache.Tally.totals t)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "ordering" `Quick pool_ordering;
          Alcotest.test_case "empty + singleton" `Quick pool_empty;
          Alcotest.test_case "exception propagation" `Quick pool_exception;
          Alcotest.test_case "reusable after failure" `Quick pool_survives_task_failure;
          Alcotest.test_case "shutdown idempotent" `Quick pool_shutdown;
          Alcotest.test_case "nested submission" `Quick pool_nested;
          Alcotest.test_case "nested exception" `Quick pool_nested_exception ] );
      ( "map_ordered",
        [ Alcotest.test_case "matches serial" `Quick map_ordered_matches_serial;
          Alcotest.test_case "serial exception" `Quick map_ordered_serial_exception ] );
      ( "scope",
        [ Alcotest.test_case "serial scope wins" `Quick serial_scope_wins;
          Alcotest.test_case "transient scope shared" `Quick transient_scope_shared;
          Alcotest.test_case "tally totals jobs-invariant" `Quick tally_jobs_invariant ] );
      ( "replicates",
        [ Alcotest.test_case "ordered trials" `Quick replicates_values;
          Alcotest.test_case "earliest failure" `Quick replicates_earliest_failure ] );
      ( "determinism",
        [ Alcotest.test_case "e8 full tier jobs-invariant" `Quick e8_full_tier_jobs_parity;
          Alcotest.test_case "experiments jobs-invariant" `Slow experiment_determinism;
          Alcotest.test_case "quick total_rounds pinned" `Quick quick_total_rounds ] );
      ( "json",
        [ Alcotest.test_case "escaping" `Quick json_escaping;
          Alcotest.test_case "document" `Quick json_document;
          Alcotest.test_case "runner metrics" `Quick runner_json_has_metrics ] ) ]
