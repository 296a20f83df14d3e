(* Tests for the graph substrate: digraphs, vertex covers (the measure of
   disruptability), the leader spanner, and workload generators. *)

module Dense = Rgraph.Digraph.Dense
module Ref = Digraph_ref
module Vertex_cover = Rgraph.Vertex_cover
module Spanner = Rgraph.Spanner
module Workload = Rgraph.Workload

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let edge = Alcotest.(pair int int)

(* Random small digraph generator for properties. *)
let graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 9 in
    let* density = int_range 1 3 in
    let* seed = int_range 0 10000 in
    let rng = Prng.Rng.create (Int64.of_int seed) in
    let edges = ref [] in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        if v <> w && Prng.Rng.int rng 4 < density then edges := (v, w) :: !edges
      done
    done;
    return !edges)

let arb_graph = QCheck.make ~print:(fun es -> QCheck.Print.(list (pair int int)) es) graph_gen

(* -- Digraph -- *)

let digraph_basics () =
  let g = Dense.of_edges [ (1, 2); (2, 3); (1, 2) ] in
  check Alcotest.int "duplicates collapse" 2 (Dense.edge_count g);
  check Alcotest.int "universe is 1 + max endpoint" 4 (Dense.universe g);
  check Alcotest.bool "mem" true (Dense.mem_edge g (1, 2));
  check Alcotest.bool "not mem" false (Dense.mem_edge g (2, 1));
  let g = Dense.remove_edge g (1, 2) in
  check Alcotest.int "removal" 1 (Dense.edge_count g);
  check (Alcotest.list edge) "edges sorted" [ (2, 3) ] (Dense.edges g)

let digraph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph: self-loop") (fun () ->
      ignore (Dense.of_edges [ (1, 1) ]))

let digraph_rejects_negative () =
  Alcotest.check_raises "negative id" (Invalid_argument "Digraph: negative node id") (fun () ->
      ignore (Dense.of_edges [ (-1, 2) ]))

let digraph_queries () =
  let g = Dense.of_edges [ (0, 1); (0, 2); (3, 1) ] in
  check (Alcotest.list Alcotest.int) "vertices" [ 0; 1; 2; 3 ] (Dense.vertices g);
  check (Alcotest.list Alcotest.int) "sources" [ 0; 3 ] (Dense.sources g);
  check Alcotest.bool "has outgoing" true (Dense.has_outgoing g 3);
  check Alcotest.bool "no outgoing" false (Dense.has_outgoing g 1)

(* -- Bitset -- *)

let bitset_word_boundaries () =
  (* Exercise bits either side of the 63-bit word boundary, including the
     native-int sign bit (bit 62), which the SWAR popcount must count. *)
  let module B = Rgraph.Bitset in
  let s = B.create 130 in
  List.iter (B.set s) [ 0; 61; 62; 63; 64; 125; 126; 129 ];
  check Alcotest.int "count" 8 (B.count s);
  check (Alcotest.list Alcotest.int) "ascending iteration"
    [ 0; 61; 62; 63; 64; 125; 126; 129 ] (B.to_list s);
  B.unset s 62;
  check Alcotest.bool "unset" false (B.mem s 62);
  check Alcotest.int "count after unset" 7 (B.count s);
  check Alcotest.bool "out of range mem is false" false (B.mem s 1000);
  check Alcotest.bool "negative mem is false" false (B.mem s (-1))

let bitset_popcount_all_ones () =
  let module B = Rgraph.Bitset in
  let s = B.create 63 in
  for i = 0 to 62 do
    B.set s i
  done;
  check Alcotest.int "full word" 63 (B.count s)

(* -- Dense against the edge-set reference -- *)

let dense_matches_sparse =
  QCheck.Test.make ~name:"Dense agrees with edge-set op-for-op" ~count:300 arb_graph
    (fun edges ->
      let s = Ref.of_edges edges in
      let d = Dense.of_edges edges in
      let nodes = List.init 11 Fun.id in
      Ref.edges s = Dense.edges d
      && Ref.edge_count s = Dense.edge_count d
      && Ref.vertices s = Dense.vertices d
      && Ref.sources s = Dense.sources d
      && List.for_all
           (fun v ->
             Ref.has_outgoing s v = Dense.has_outgoing d v)
           nodes
      && List.for_all
           (fun e -> Ref.mem_edge s e = Dense.mem_edge d e)
           (List.concat_map (fun v -> List.map (fun w -> (v, w)) nodes) nodes)
      && Dense.equal (Dense.of_edges ~n:11 (Ref.edges s)) d)

let dense_update_matches_sparse =
  QCheck.Test.make ~name:"Dense removal tracks edge-set" ~count:300
    QCheck.(pair arb_graph arb_graph)
    (fun (base, updates) ->
      QCheck.assume (base <> []);
      (* Remove the second list's edges, present or not, then the base's
         own, comparing after every step; the graph ends empty. *)
      let s = ref (Ref.of_edges base) in
      let d = ref (Dense.of_edges ~n:11 base) in
      List.for_all
        (fun e ->
          s := Ref.remove_edge !s e;
          d := Dense.remove_edge !d e;
          Ref.edges !s = Dense.edges !d && Ref.edge_count !s = Dense.edge_count !d)
        (updates @ base)
      && Dense.edge_count !d = 0)

let dense_remove_noop_is_physical () =
  let d = Dense.of_edges [ (0, 1); (1, 2) ] in
  check Alcotest.bool "absent removal returns same value" true
    (Dense.remove_edge d (2, 0) == d)

(* -- Vertex cover -- *)

(* Brute-force reference: smallest subset of the endpoint set covering
   every edge, by enumerating subsets in size-then-lex order. *)
let brute_force_minimum edges =
  let vs = Array.of_list (Ref.vertices (Ref.of_edges edges)) in
  let n = Array.length vs in
  let covers mask =
    List.for_all
      (fun (v, w) ->
        let bit x =
          let rec idx i = if vs.(i) = x then i else idx (i + 1) in
          1 lsl idx 0
        in
        mask land bit v <> 0 || mask land bit w <> 0)
      edges
  in
  let best = ref n and best_mask = ref ((1 lsl n) - 1) in
  for mask = 0 to (1 lsl n) - 1 do
    let size = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr size
    done;
    if !size < !best && covers mask then begin
      best := !size;
      best_mask := mask
    end
  done;
  List.filteri (fun i _ -> !best_mask land (1 lsl i) <> 0) (Array.to_list vs)

let vc_matches_brute_force =
  QCheck.Test.make ~name:"FPT solver matches subset enumeration" ~count:150 arb_graph
    (fun edges ->
      let g = Dense.of_edges edges in
      let opt = List.length (brute_force_minimum edges) in
      Vertex_cover.minimum_size_dense g = opt
      && Vertex_cover.at_most_dense g opt
      && ((opt = 0) || not (Vertex_cover.at_most_dense g (opt - 1))))

let vc_known_graphs () =
  let cases =
    [ ("triangle", [ (0, 1); (1, 2); (2, 0) ], 2);
      ("K4", Workload.complete ~n:4, 3);
      ("star-out", Workload.star ~n:6 ~hub:0, 1);
      ("path", [ (0, 1); (1, 2); (2, 3); (3, 4) ], 2);
      ("two disjoint edges", [ (0, 1); (2, 3) ], 2);
      ("empty", [], 0) ]
  in
  List.iter
    (fun (name, edges, expected) ->
      check Alcotest.int name expected
        (Vertex_cover.minimum_size_dense (Dense.of_edges edges)))
    cases

let vc_minimum_is_cover =
  QCheck.Test.make ~name:"minimum is a cover" ~count:200 arb_graph (fun edges ->
      Ref.is_cover (Ref.of_edges edges) (Vertex_cover.minimum_dense (Dense.of_edges edges)))

let vc_at_most_consistent =
  QCheck.Test.make ~name:"at_most agrees with minimum" ~count:150 arb_graph (fun edges ->
      let g = Dense.of_edges edges in
      let m = Vertex_cover.minimum_size_dense g in
      Vertex_cover.at_most_dense g m
      && (m = 0 || not (Vertex_cover.at_most_dense g (m - 1))))

let vc_is_cover_negative () =
  let g = Ref.of_edges [ (0, 1); (2, 3) ] in
  check Alcotest.bool "partial set is not a cover" false (Ref.is_cover g [ 0 ])

let vc_pool_matches_serial () =
  (* The same batch of covers through 4 pool workers and serially: the
     solver keeps no state across calls, so pooled solves must agree with
     serial ones byte-for-byte. *)
  let rng = Prng.Rng.create 99L in
  let graphs =
    List.init 24 (fun i ->
        let n = 4 + (i mod 6) in
        Dense.of_edges (Workload.random_pairs rng ~n ~count:(min 8 (n * (n - 1) / 2))))
  in
  let serial = List.map Vertex_cover.minimum_dense graphs in
  let pooled =
    Parallel.Pool.with_pool ~domains:4 (fun pool ->
        Parallel.Pool.map_ordered pool Vertex_cover.minimum_dense graphs)
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "pooled covers equal serial covers" serial pooled

(* -- Spanner -- *)

let spanner_pair_count () =
  (* All ordered pairs with at least one endpoint among t+1 leaders:
     2(t+1)(n-t-1) cross pairs plus (t+1)t intra-leader pairs. *)
  List.iter
    (fun (n, t) ->
      let expected = (2 * (t + 1) * (n - t - 1)) + ((t + 1) * t) in
      check Alcotest.int
        (Printf.sprintf "count n=%d t=%d" n t)
        expected
        (List.length (Spanner.pairs ~n ~t)))
    [ (10, 1); (12, 2); (20, 3) ]

let spanner_leaders () =
  check (Alcotest.list Alcotest.int) "leaders" [ 0; 1; 2 ] (Spanner.leaders ~t:2)

let spanner_survives_all_t_removals () =
  (* Exhaustive for t=1: removing any single node leaves it connected. *)
  let n = 8 and t = 1 in
  for v = 0 to n - 1 do
    check Alcotest.bool
      (Printf.sprintf "remove %d" v)
      true
      (Spanner.survives_removal ~n ~t ~removed:[ v ])
  done

let spanner_survives_sampled_removals () =
  let n = 12 and t = 2 in
  let rng = Prng.Rng.create 15L in
  for _ = 1 to 30 do
    let nodes = Array.init n Fun.id in
    Prng.Rng.shuffle rng nodes;
    let removed = Array.to_list (Array.sub nodes 0 t) in
    check Alcotest.bool "survives t removals" true (Spanner.survives_removal ~n ~t ~removed)
  done

let spanner_dies_when_all_leaders_and_cut () =
  (* Removing all t+1 leaders disconnects everything (non-leaders have no
     mutual edges). *)
  let n = 8 and t = 1 in
  check Alcotest.bool "removing both leaders disconnects" false
    (Spanner.survives_removal ~n ~t ~removed:[ 0; 1 ])

(* -- Workloads -- *)

let workload_disjoint () =
  let pairs = Workload.disjoint_pairs ~n:10 ~count:5 in
  check Alcotest.int "count" 5 (List.length pairs);
  let nodes = List.concat_map (fun (v, w) -> [ v; w ]) pairs in
  check Alcotest.int "all nodes distinct" 10 (List.length (List.sort_uniq compare nodes))

let workload_complete () =
  check Alcotest.int "n(n-1) ordered pairs" 20 (List.length (Workload.complete ~n:5))

let workload_complete_on () =
  let pairs = Workload.complete_on [ 3; 5; 9 ] in
  check Alcotest.int "count" 6 (List.length pairs);
  check Alcotest.bool "contains" true (List.mem (5, 9) pairs)

let workload_star () =
  let pairs = Workload.star ~n:5 ~hub:2 in
  check Alcotest.int "count" 4 (List.length pairs);
  List.iter (fun (v, _) -> check Alcotest.int "hub is source" 2 v) pairs

let workload_random_distinct =
  QCheck.Test.make ~name:"random pairs distinct" ~count:100
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let count = min 5 (n * (n - 1)) in
      let pairs = Workload.random_pairs (Prng.Rng.create (Int64.of_int seed)) ~n ~count in
      List.length pairs = count
      && List.length (List.sort_uniq compare pairs) = count
      && List.for_all (fun (v, w) -> v <> w && v < n && w < n) pairs)

let () =
  Alcotest.run "graph"
    [ ( "digraph",
        [ Alcotest.test_case "basics" `Quick digraph_basics;
          Alcotest.test_case "rejects self-loops" `Quick digraph_rejects_self_loop;
          Alcotest.test_case "rejects negative ids" `Quick digraph_rejects_negative;
          Alcotest.test_case "queries" `Quick digraph_queries ] );
      ( "bitset",
        [ Alcotest.test_case "word boundaries" `Quick bitset_word_boundaries;
          Alcotest.test_case "popcount full word" `Quick bitset_popcount_all_ones ] );
      ( "dense",
        [ Alcotest.test_case "no-op removal is physical" `Quick dense_remove_noop_is_physical;
          qcheck dense_matches_sparse;
          qcheck dense_update_matches_sparse ] );
      ( "vertex-cover",
        [ Alcotest.test_case "known graphs" `Quick vc_known_graphs;
          Alcotest.test_case "is_cover negative" `Quick vc_is_cover_negative;
          qcheck vc_minimum_is_cover;
          qcheck vc_at_most_consistent;
          qcheck vc_matches_brute_force;
          Alcotest.test_case "pool matches serial" `Quick vc_pool_matches_serial ] );
      ( "spanner",
        [ Alcotest.test_case "pair count" `Quick spanner_pair_count;
          Alcotest.test_case "leaders" `Quick spanner_leaders;
          Alcotest.test_case "survives any single removal" `Quick
            spanner_survives_all_t_removals;
          Alcotest.test_case "survives sampled t removals" `Quick
            spanner_survives_sampled_removals;
          Alcotest.test_case "leaders are the cut" `Quick
            spanner_dies_when_all_leaders_and_cut ] );
      ( "workload",
        [ Alcotest.test_case "disjoint pairs" `Quick workload_disjoint;
          Alcotest.test_case "complete" `Quick workload_complete;
          Alcotest.test_case "complete_on" `Quick workload_complete_on;
          Alcotest.test_case "star" `Quick workload_star;
          qcheck workload_random_distinct ] ) ]
