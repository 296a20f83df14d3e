type verdict = Genuine | Fooled | Nothing

type outcome = {
  engine : Radio.Engine.result;
  verdicts : ((int * int) * verdict) list;
  fooled : int;
  genuine : int;
  nothing : int;
}

let fake_body (v, w) = Printf.sprintf "FAKE<%d,%d>" v w

let simulating_adversary rng ~pairs ~channels ~budget =
  let targets = List.filteri (fun i _ -> i < budget) pairs in
  { Radio.Adversary.name = "simulating";
    act =
      (fun ~round:_ ->
        (* One spoof per simulated pair on an independent uniform channel;
           if two picks land on the same channel only the first is kept
           (the budget is per-channel). *)
        List.fold_left
          (fun acc ((v, w) as pair) ->
            let chan = Prng.Rng.int rng channels in
            if List.exists (fun s -> s.Radio.Adversary.chan = chan) acc then acc
            else
              { Radio.Adversary.chan;
                spoof = Some (Radio.Frame.Plain { src = v; dst = w; body = fake_body pair }) }
              :: acc)
          [] targets);
    observe = None }

let run ~rounds ~cfg ~pairs ~messages ~adversary () =
  let channels = cfg.Radio.Config.channels in
  let first_claim : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let my_sends = List.filter (fun (v, _) -> v = id) pairs in
    let my_recvs = List.filter (fun (_, w) -> w = id) pairs in
    for _ = 1 to rounds do
      match (my_sends, my_recvs) with
      | (v, w) :: _, _ ->
        (* Sources broadcast their (single) message on a random channel. *)
        let chan = Prng.Rng.int ctx.rng channels in
        Radio.Engine.transmit ~chan
          (Radio.Frame.Plain { src = v; dst = w; body = messages (v, w) })
      | [], _ :: _ ->
        let chan = Prng.Rng.int ctx.rng channels in
        (match Radio.Engine.listen ~chan with
         | Some (Radio.Frame.Plain { src; dst; body }) when dst = id ->
           if (not (Hashtbl.mem first_claim (src, dst))) && List.mem (src, dst) pairs then
             Hashtbl.replace first_claim (src, dst) body
         | Some _ | None -> ())
      | [], [] -> Radio.Engine.idle ()
    done
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let verdicts =
    List.map
      (fun pair ->
        match Hashtbl.find_opt first_claim pair with
        | None -> (pair, Nothing)
        | Some body -> (pair, if body = messages pair then Genuine else Fooled))
      (List.sort Rgraph.Digraph.edge_compare pairs)
  in
  let count v = List.length (List.filter (fun (_, x) -> x = v) verdicts) in
  { engine; verdicts; fooled = count Fooled; genuine = count Genuine; nothing = count Nothing }
