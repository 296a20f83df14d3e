let triangles ~t = List.init t (fun i -> [ 3 * i; (3 * i) + 1; (3 * i) + 2 ])

let triangle_pairs ~t =
  List.concat_map (fun tri -> Rgraph.Workload.complete_on tri) (triangles ~t)

let triple_of ~t v = if v < 3 * t then Some (v / 3) else None

(* One protocol run as an E6/E12 row.  The bound column is what the play
   guarantees: t with surrogates, 2t without (Section 5). *)
let row ~play ~name ~t ~pairs ~adversary ~seed =
  let channels = t + 1 in
  let n =
    max (Common.fame_nodes_for ~t ~channels_used:channels ~channels)
      (2 + List.fold_left (fun acc (v, w) -> max acc (max v w)) 0 pairs)
  in
  let p = Common.run_fame ~play ~seed ~n ~channels ~t ~pairs ~adversary () in
  let protocol, bound =
    match play with Ame.Fame.Game -> ("f-AME", t) | Ame.Fame.Direct -> ("direct", 2 * t)
  in
  ( [ protocol; name; string_of_int t; string_of_int (List.length pairs);
      string_of_int p.Common.delivered; string_of_int p.Common.failed;
      (match p.Common.vc with Some v -> string_of_int v | None -> "-");
      string_of_int bound ],
    p.Common.rounds )

let header = [ "protocol"; "adversary"; "t"; "|E|"; "delivered"; "failed"; "vc"; "bound" ]

(* Each row is one protocol run with an explicit seed: an independent task
   for the domain pool. *)
let run_rows ~jobs specs =
  let outcomes = Common.sweep ~jobs (fun spec -> spec ()) specs in
  (List.map fst outcomes, List.fold_left (fun acc (_, r) -> acc + r) 0 outcomes)

let e6 ~quick ~jobs =
  let ts = if quick then [ 2 ] else [ 1; 2; 3 ] in
  let specs =
    List.concat_map
      (fun t ->
        let channels = t + 1 in
        let n = Common.fame_nodes_for ~t ~channels_used:channels ~channels in
        let disjoint = Rgraph.Workload.disjoint_pairs ~n ~count:(4 * t) in
        let clustered = triangle_pairs ~t in
        [ (fun () ->
            row ~play:Ame.Fame.Game ~name:"schedule-jam" ~t ~pairs:disjoint
              ~adversary:(Common.schedule_jam ~channels ~budget:t)
              ~seed:(Int64.of_int (100 + t)));
          (fun () ->
            row ~play:Ame.Fame.Game ~name:"random-jam" ~t ~pairs:disjoint
              ~adversary:(fun _ ->
                Common.random_jam ~seed:(Int64.of_int (200 + t)) ~channels ~budget:t)
              ~seed:(Int64.of_int (300 + t)));
          (fun () ->
            row ~play:Ame.Fame.Game ~name:"triangle" ~t ~pairs:clustered
              ~adversary:(fun board ->
                Ame.Attacks.triangle_jammer board ~channels ~budget:t
                  ~triple_of:(triple_of ~t))
              ~seed:(Int64.of_int (400 + t))) ])
      ts
  in
  let rows, total_rounds = run_rows ~jobs specs in
  Common.result ~total_rounds
    [ Common.Blank;
      Common.text "== E6 / Theorems 2+6: f-AME disruption cover <= t (optimal) ==";
      Common.Blank; Common.table ~header rows ]

let e12 ~quick ~jobs =
  let ts = if quick then [ 2 ] else [ 1; 2; 3 ] in
  let specs =
    List.concat_map
      (fun t ->
        let channels = t + 1 in
        let pairs = triangle_pairs ~t in
        let adversary board =
          Ame.Attacks.triangle_jammer board ~channels ~budget:t ~triple_of:(triple_of ~t)
        in
        [ (fun () ->
            row ~play:Ame.Fame.Direct ~name:"triangle" ~t ~pairs ~adversary
              ~seed:(Int64.of_int (500 + t)));
          (fun () ->
            row ~play:Ame.Fame.Game ~name:"triangle" ~t ~pairs ~adversary
              ~seed:(Int64.of_int (600 + t))) ])
      ts
  in
  let rows, total_rounds = run_rows ~jobs specs in
  Common.result ~total_rounds
    [ Common.Blank;
      Common.text "== E12 / ablation: surrogates on vs off under the triangle adversary ==";
      Common.text
        "direct exchange (no surrogates) is cornered into vertex cover 2t; f-AME stays at \
         <= t";
      Common.Blank; Common.table ~header rows ]
