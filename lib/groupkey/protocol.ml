type node_result = {
  pairwise : (int * string) list;
  leader_keys : (int * string) list;
  group_key : string option;
}

type outcome = {
  fame : Ame.Fame.outcome;
  engine : Radio.Engine.result;
  nodes : node_result array;
  complete_leaders : int list;
  agreed_key_holders : int;
  wrong_key_holders : int;
  no_key_holders : int;
  total_rounds : int;
}

let leader_count ~t = t + 1

let reporters ~t = List.init ((2 * t) + 1) (fun i -> t + 1 + i)

let bytes_of_int64 v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)))

let random_key rng =
  String.concat "" (List.init 4 (fun _ -> bytes_of_int64 (Prng.Rng.bits64 rng)))

let pair_label v w = Printf.sprintf "%d|%d" (min v w) (max v w)

let dissemination_cfg cfg =
  { cfg with Radio.Config.seed = Int64.add cfg.Radio.Config.seed 0x9E3779B9L }

let run ~cfg ~fame_adversary ~hop_adversary () =
  let n = cfg.Radio.Config.n in
  let t = cfg.Radio.Config.t in
  let leaders = List.init (leader_count ~t) Fun.id in
  (* Deterministic per-node DH key pairs and leader proposals. *)
  let master = Prng.Rng.create (Int64.logxor cfg.Radio.Config.seed 0x6B65795F67656EL) in
  let keypairs =
    Array.init n (fun v ->
        Crypto.Dh.generate (Prng.Rng.split_at master (1000 + v)))
  in
  let proposals =
    Array.init n (fun v -> random_key (Prng.Rng.split_at master (5000 + v)))
  in
  (* Part 1: f-AME over the leader spanner carrying DH public keys. *)
  let pairs = Rgraph.Spanner.pairs ~n ~t in
  let messages (v, _) = Crypto.Dh.encode_public keypairs.(v).Crypto.Dh.public in
  let fame =
    Ame.Fame.run ~cfg ~pairs ~messages ~adversary:fame_adversary ()
  in
  (* Derive each node's pairwise keys from its own part-1 observations:
     v uses the pair with w iff it received w's public key (edge (w, v)
     delivered to v) and its own key reached w (edge (v, w) confirmed). *)
  let confirmed = fame.Ame.Fame.confirmed in
  let pairwise = Array.make n [] in
  List.iter
    (fun ((w, v), body) ->
      if List.mem (v, w) confirmed then
        match Crypto.Dh.decode_public body with
        | Some pub when Crypto.Dh.valid_public pub ->
          let shared =
            Crypto.Dh.shared_secret ~secret:keypairs.(v).Crypto.Dh.secret pub
          in
          let key = Crypto.Dh.derive_key ~info:(pair_label v w) shared in
          pairwise.(v) <- (w, key) :: pairwise.(v)
        | Some _ | None -> ())
    fame.Ame.Fame.delivered;
  Array.iteri
    (fun v lst ->
      pairwise.(v) <-
        List.sort
          (fun (a, x) (b, y) -> if a <> b then Int.compare a b else String.compare x y)
          lst)
    pairwise;
  let complete_leaders =
    List.filter (fun v -> List.length pairwise.(v) >= n - 1 - t) leaders
  in
  (* Parts 2-3 run as a second synchronous execution. *)
  let diss =
    Dissemination.run ~cfg:(dissemination_cfg cfg)
      ~pairwise:(fun v -> pairwise.(v))
      ~proposals:(fun v -> proposals.(v))
      ~complete_leaders ~excluded:[] ~adversary:hop_adversary ()
  in
  let engine = diss.Dissemination.engine in
  let nodes =
    Array.init n (fun id ->
        { pairwise = pairwise.(id);
          leader_keys = diss.Dissemination.leader_keys.(id);
          group_key = diss.Dissemination.group_key.(id) })
  in
  let majority_key, majority_count = Dissemination.majority diss.Dissemination.group_key in
  let wrong =
    Array.fold_left
      (fun acc r ->
        match (r.group_key, majority_key) with
        | Some k, Some mk when k <> mk -> acc + 1
        | _ -> acc)
      0 nodes
  in
  let none =
    Array.fold_left (fun acc r -> if r.group_key = None then acc + 1 else acc) 0 nodes
  in
  { fame; engine; nodes; complete_leaders;
    agreed_key_holders = majority_count; wrong_key_holders = wrong; no_key_holders = none;
    total_rounds =
      fame.Ame.Fame.engine.Radio.Engine.rounds_used + engine.Radio.Engine.rounds_used }
