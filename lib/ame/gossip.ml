type outcome = {
  engine : Radio.Engine.result;
  rounds_to_completion : int option;
  coverage : int array;
  fake_rumors_accepted : int;
}

let run ?(max_rounds = 200_000) ~cfg ~rumors ~adversary () =
  let channels = cfg.Radio.Config.channels in
  let n = cfg.Radio.Config.n in
  let budget = cfg.Radio.Config.t in
  (* known.(i).(owner) is the rumor body node i believes for [owner];
     count.(i) how many it knows.  [with_enough] counts the nodes that know
     at least [enough], kept as nodes learn, so the completion check is
     O(1) (every node knows its own rumor, so with [enough <= 1] all
     count from the start).  vector.(i) caches node i's transmitted vector
     (owner-ascending); learning a rumor drops it. *)
  let enough = n - budget in
  let known =
    Array.init n (fun i -> Array.init n (fun o -> if o = i then Some (rumors i) else None))
  in
  let count = Array.make n 1 in
  let with_enough = ref (if 1 >= enough then n else 0) in
  let vector = Array.make n None in
  let learn id owner body =
    known.(id).(owner) <- Some body;
    count.(id) <- count.(id) + 1;
    if count.(id) = enough then incr with_enough;
    vector.(id) <- None
  in
  let vector_of id =
    match vector.(id) with
    | Some v -> v
    | None ->
      let v = ref [] in
      for o = n - 1 downto 0 do
        match known.(id).(o) with Some body -> v := (o, body) :: !v | None -> ()
      done;
      vector.(id) <- Some !v;
      !v
  in
  let completion_round = ref None in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let r = ref 0 in
    while Option.is_none !completion_round && !r < max_rounds do
      incr r;
      let chan = Prng.Rng.int ctx.rng channels in
      if Prng.Rng.bool ctx.rng then begin
        Radio.Engine.transmit ~chan
          (Radio.Frame.Vector { owner = id; entries = vector_of id })
      end
      else begin
        match Radio.Engine.listen ~chan with
        | Some (Radio.Frame.Vector { entries; _ }) ->
          List.iter
            (fun (owner, body) ->
              if owner >= 0 && owner < n && Option.is_none known.(id).(owner) then
                learn id owner body)
            entries
        | Some _ | None -> ()
      end;
      (* The last node to act each round evaluates the global completion
         predicate (simulation-level instrumentation, not protocol logic). *)
      if id = n - 1 && Option.is_none !completion_round && !with_enough >= enough then
        completion_round := Some !r
    done
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let fake_rumors_accepted =
    Array.fold_left
      (fun acc row ->
        let fakes = ref acc in
        Array.iteri
          (fun owner -> function
            | Some body when body <> rumors owner -> incr fakes
            | Some _ | None -> ())
          row;
        !fakes)
      0 known
  in
  { engine; rounds_to_completion = !completion_round; coverage = count; fake_rumors_accepted }
