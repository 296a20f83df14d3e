type point = {
  cells : string list;
  diverged : bool;
  rounds : int;
}

let row ~t ~channels ~channels_used ~feedback_mode ~edges ~seed ~normalizer =
  let n = max (Common.fame_nodes_for ~t ~channels_used ~channels) (2 * edges + 2) in
  let pairs = Rgraph.Workload.disjoint_pairs ~n ~count:edges in
  let p =
    Common.run_fame ~channels_used ~feedback_mode ~seed ~n ~channels ~t ~pairs ()
  in
  let norm = float_of_int p.Common.rounds /. normalizer ~edges ~t ~n in
  { cells =
      [ string_of_int t; string_of_int channels; string_of_int n; string_of_int edges;
        string_of_int p.Common.rounds; string_of_int p.Common.moves;
        string_of_int p.Common.delivered;
        (match p.Common.vc with Some v -> string_of_int v | None -> "-");
        Printf.sprintf "%.2f" norm ];
    diverged = p.Common.diverged;
    rounds = p.Common.rounds }

let header = [ "t"; "C"; "n"; "|E|"; "rounds"; "moves"; "delivered"; "vc"; "normalized" ]

let regime_blocks ~title ~normalizer_label points =
  [ Common.Blank; Common.textf "== %s ==" title;
    Common.textf "normalized = rounds / %s (flat column = paper's shape holds)"
      normalizer_label;
    Common.Blank; Common.table ~header (List.map (fun p -> p.cells) points) ]
  @
  if List.exists (fun p -> p.diverged) points then
    [ Common.text "WARNING: some runs diverged (whp failure)" ]
  else []

let total_rounds points = List.fold_left (fun acc p -> acc + p.rounds) 0 points

let e1 ~quick ~jobs =
  let normalizer ~edges ~t ~n =
    float_of_int edges *. float_of_int (t * t) *. Radio.Config.log2 (float_of_int n)
  in
  let sweeps =
    if quick then [ (1, 4); (1, 8); (2, 8) ]
    else [ (1, 4); (1, 8); (1, 16); (2, 4); (2, 8); (2, 16); (3, 8); (3, 16) ]
  in
  let points =
    Common.sweep ~jobs
      (fun (t, edges) ->
        row ~t ~channels:(t + 1) ~channels_used:(t + 1) ~feedback_mode:Ame.Fame.Sequential
          ~edges ~seed:(Int64.of_int ((t * 1000) + edges)) ~normalizer)
      sweeps
  in
  Common.result ~total_rounds:(total_rounds points)
    (regime_blocks ~title:"E1 / Figure 3 row 1: C = t+1, f-AME in O(|E| t^2 log n)"
       ~normalizer_label:"(|E| * t^2 * log2 n)" points)

let e2 ~quick ~jobs =
  let normalizer ~edges ~t ~n =
    ignore t;
    float_of_int edges *. Radio.Config.log2 (float_of_int n)
  in
  let sweeps =
    if quick then [ (2, 8) ] else [ (2, 4); (2, 8); (2, 16); (3, 8); (3, 16); (4, 8) ]
  in
  let points =
    Common.sweep ~jobs
      (fun (t, edges) ->
        row ~t ~channels:(2 * t) ~channels_used:(2 * t) ~feedback_mode:Ame.Fame.Sequential
          ~edges ~seed:(Int64.of_int ((t * 2000) + edges)) ~normalizer)
      sweeps
  in
  let main =
    regime_blocks ~title:"E2 / Figure 3 row 2: C = 2t, f-AME in O(|E| log n)"
      ~normalizer_label:"(|E| * log2 n)" points
  in
  (* Interpolation between rows 1 and 2: the paper only states the two
     endpoints, but the same protocol runs at any t < C <= 2t; rounds
     should fall monotonically as channels are added. *)
  let interp =
    if quick then []
    else
      let t = 3 and edges = 8 in
      let points =
        Common.sweep ~jobs
          (fun channels ->
            row ~t ~channels ~channels_used:channels ~feedback_mode:Ame.Fame.Sequential
              ~edges ~seed:(Int64.of_int ((t * 2500) + channels))
              ~normalizer:(fun ~edges ~t:_ ~n ->
                float_of_int edges *. Radio.Config.log2 (float_of_int n)))
          [ t + 1; t + 2; 2 * t ]
      in
      [ Common.Blank; Common.textf "interpolation t = %d, |E| = %d, C from t+1 to 2t:" t edges;
        Common.Blank; Common.table ~header (List.map (fun p -> p.cells) points) ]
  in
  Common.result ~total_rounds:(total_rounds points) (main @ interp)

let e3 ~quick ~jobs =
  let normalizer ~edges ~t ~n =
    let l = Radio.Config.log2 (float_of_int n) in
    float_of_int edges *. l *. l /. float_of_int t
  in
  let sweeps =
    if quick then [ (2, 8) ] else [ (2, 4); (2, 8); (2, 16); (3, 8); (3, 16) ]
  in
  let points =
    Common.sweep ~jobs
      (fun (t, edges) ->
        (* C' must be a power of two for the hypercube merge; round 2t up to
           one and give the adversary-facing channel count C = t * C'
           (>= 2t^2, the regime's requirement). *)
        let channels_used =
          let rec up p = if p >= 2 * t then p else up (2 * p) in
          up 2
        in
        let channels = t * channels_used in
        row ~t ~channels ~channels_used ~feedback_mode:Ame.Fame.Tree ~edges
          ~seed:(Int64.of_int ((t * 3000) + edges)) ~normalizer)
      sweeps
  in
  Common.result ~total_rounds:(total_rounds points)
    (regime_blocks
       ~title:"E3 / Figure 3 row 3: C >= 2t^2, tree feedback, f-AME in O(|E| log^2 n / t)"
       ~normalizer_label:"(|E| * log2^2 n / t)" points)
