(* The benchmark's own tests: its correctness checks fed tampered results,
   and a smoke run of every workload at toy size through the real command
   line, checked against BENCHMARK.json. *)

open Benchsuite
module Mux = Secure_channel.Mux
module Json = Experiments.Json

let mux_run () =
  Mux.run
    (Mux.make ~key:"test" ~logical:8 ~phys:4 ~budget:1 ~ack_mode:Mux.Piggybacked ~rounds:3 ())
    ~adversary:Radio.Adversary.null

let fame_run () =
  let n = 25 in
  let messages (v, w) = Printf.sprintf "m-%d-%d" v w in
  let pairs = Rgraph.Workload.disjoint_pairs ~n ~count:4 in
  let o =
    Ame.Fame.run
      ~cfg:(Radio.Config.make ~n ~channels:2 ~t:1 ~seed:5L ())
      ~pairs ~messages
      ~adversary:(fun _ -> Radio.Adversary.null)
      ()
  in
  (o, List.map (fun p -> (p, messages p)) pairs)

let clean name violations = Alcotest.(check (list string)) name [] violations
let caught name violations = Alcotest.(check bool) name true (violations <> [])

let test_svc () =
  clean "untampered" (Checks.svc ~null:true (mux_run ()));
  let tamper name f =
    let r = mux_run () in
    f r.Mux.stats;
    caught name (Checks.svc ~null:true r)
  in
  tamper "forged accept" (fun s -> s.Mux.forged_accepts <- 1);
  tamper "plaintext leak" (fun s -> s.Mux.plaintext_leaks <- 1);
  tamper "lost message" (fun s -> s.Mux.delivered <- s.Mux.delivered - 1);
  tamper "unacked message" (fun s -> s.Mux.acked <- s.Mux.acked - 1);
  (* Under jamming, loss is the adversary's doing, not a violation. *)
  let r = mux_run () in
  r.Mux.stats.Mux.delivered <- r.Mux.stats.Mux.delivered - 1;
  clean "loss allowed when jammed" (Checks.svc ~null:false r);
  let r = mux_run () in
  let first = Mux.output_digest r in
  clean "same digest" (Checks.same_digest ~expect:first (Mux.output_digest (mux_run ())));
  r.Mux.stats.Mux.duplicates <- r.Mux.stats.Mux.duplicates + 1;
  caught "digest drift" (Checks.same_digest ~expect:first (Mux.output_digest r))

let test_fame () =
  let o, expected = fame_run () in
  clean "untampered" (Checks.fame ~expected o);
  caught "diverged" (Checks.fame ~expected { o with Ame.Fame.diverged = true });
  caught "failed pair" (Checks.fame ~expected { o with Ame.Fame.failed = [ (0, 4) ] });
  caught "wrong payload"
    (Checks.fame ~expected
       { o with Ame.Fame.delivered = List.map (fun (p, _) -> (p, "forged")) o.Ame.Fame.delivered });
  caught "missing payload" (Checks.fame ~expected { o with Ame.Fame.delivered = List.tl o.Ame.Fame.delivered })

let test_sweep () =
  let pinned = [ ("e1", "aa"); ("e2", "bb") ] in
  clean "untampered" (Checks.sweep ~pinned [ ("e1", Ok "aa"); ("e2", Ok "bb") ]);
  caught "changed digest" (Checks.sweep ~pinned [ ("e1", Ok "aa"); ("e2", Ok "cc") ]);
  caught "raised" (Checks.sweep ~pinned [ ("e1", Ok "aa"); ("e2", Error "Not_found") ]);
  caught "did not run" (Checks.sweep ~pinned [ ("e1", Ok "aa") ]);
  caught "not pinned" (Checks.sweep ~pinned [ ("e1", Ok "aa"); ("e2", Ok "bb"); ("e3", Ok "dd") ]);
  (* Every registry experiment has a pinned digest. *)
  Alcotest.(check (list string))
    "pinned ids" Experiments.Registry.ids
    (List.map fst Workload.quick_digests)

(* -- smoke: the command line against the manifest -- *)

let manifest =
  lazy
    (match Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
     | Ok doc -> doc
     | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let entries key = Option.value (Option.bind (Json.member key (Lazy.force manifest)) Json.to_list) ~default:[]
let field k x = Option.bind (Json.member k x) Json.to_string_opt

let run_main args =
  let ic = Unix.open_process_args_in "./main.exe" (Array.of_list ("./main.exe" :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "main.exe %s failed:\n%s" (String.concat " " args) out);
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  match Json.of_string (List.nth lines (List.length lines - 1)) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "last line is not JSON: %s" e

(* Exactly the metrics the manifest names, each with its unit. *)
let check_metrics ~key doc =
  let want = List.map (fun m -> (Option.get (field "name" m), Option.get (field "unit" m))) (entries key) in
  let got =
    match Json.member "metrics" doc with
    | Some (Json.Obj kvs) ->
      List.map
        (fun (name, m) ->
          (match Option.bind (Json.member "value" m) Json.to_float_opt with
           | Some v when Float.is_finite v -> ()
           | _ -> Alcotest.failf "%s has no finite value" name);
          (name, Option.value (field "unit" m) ~default:"?"))
        kvs
    | _ -> Alcotest.fail "no metrics object"
  in
  Alcotest.(check (list (pair string string))) key want got;
  Alcotest.(check (option bool)) "correct" (Some true) (Option.bind (Json.member "correct" doc) Json.to_bool_opt)

let smoke name () =
  let run trace = run_main [ "--workload"; name; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace; "--smoke" ] in
  check_metrics ~key:"end_to_end" (run "0");
  check_metrics ~key:"per_layer" (run "1");
  let spans = Printf.sprintf ".benchsuite/spans-%s-1.json" name in
  match Json.of_string (In_channel.with_open_bin spans In_channel.input_all) with
  | Error e -> Alcotest.failf "spans file: %s" e
  | Ok doc ->
    let spans = Option.value (Option.bind (Json.member "spans" doc) Json.to_list) ~default:[] in
    Alcotest.(check bool) "has spans" true (spans <> []);
    List.iter
      (fun s ->
        List.iter
          (fun k -> if Json.member k s = None then Alcotest.failf "span without %s" k)
          [ "name"; "start_ns"; "end_ns"; "parent"; "run" ])
      spans

let () =
  let workloads = List.filter_map (field "name") (entries "workloads") in
  Alcotest.run "benchsuite"
    [ ( "checks",
        [ Alcotest.test_case "service" `Quick test_svc;
          Alcotest.test_case "f-AME" `Quick test_fame;
          Alcotest.test_case "sweep" `Quick test_sweep ] );
      ("smoke", List.map (fun w -> Alcotest.test_case w `Quick (smoke w)) workloads) ]
