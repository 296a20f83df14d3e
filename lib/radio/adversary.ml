type strike = { chan : int; spoof : Frame.t option }

type t = {
  name : string;
  act : round:int -> strike list;
  observe : (Transcript.round_record -> unit) option;
}

let validate_nonempty ~channels ~budget strikes =
  (* Over-budget strategies are clamped, not rejected: the model simply
     ignores transmissions beyond the budget (dropped from the end, like
     {!energy_bounded}).  Invalid or duplicate channels are still adversary
     bugs and raise. *)
  let strikes =
    if List.compare_length_with strikes budget > 0 then
      List.filteri (fun i _ -> i < budget) strikes
    else strikes
  in
  (* At most [budget] strikes survive the clamp, so the quadratic duplicate
     scan is tiny — and unlike a hash table it allocates nothing on the
     per-round path. *)
  let rec check = function
    | [] -> ()
    | { chan; _ } :: rest ->
      if chan < 0 || chan >= channels then invalid_arg "Adversary: strike on invalid channel";
      List.iter
        (fun s -> if s.chan = chan then invalid_arg "Adversary: duplicate strike channel")
        rest;
      check rest
  in
  check strikes;
  strikes

let validate ~channels ~budget strikes =
  match strikes with
  | [] ->
    (* Null path: the common case on every quiet round and every round of
       the null adversary.  Short-circuiting here keeps it allocation-free
       (the clamp/duplicate machinery is never entered). *)
    []
  | _ :: _ -> validate_nonempty ~channels ~budget strikes

let null = { name = "null"; act = (fun ~round:_ -> []); observe = None }

let distinct_random_channels rng ~channels ~count =
  let arr = Array.init channels Fun.id in
  Prng.Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min count channels))

let random_jammer rng ~channels ~budget =
  { name = "random-jammer";
    act =
      (fun ~round:_ ->
        List.map (fun chan -> { chan; spoof = None })
          (distinct_random_channels rng ~channels ~count:budget));
    observe = None }

let sweep_jammer ~channels ~budget =
  { name = "sweep-jammer";
    act =
      (fun ~round ->
        List.init budget (fun i -> { chan = (round + i) mod channels; spoof = None }));
    observe = None }

let spoofer rng ~channels ~budget ~forge =
  { name = "spoofer";
    act =
      (fun ~round ->
        List.map (fun chan -> { chan; spoof = Some (forge ~round chan) })
          (distinct_random_channels rng ~channels ~count:budget));
    observe = None }

let reactive_jammer rng ~channels ~budget =
  let last_traffic = Array.make channels 0 in
  { name = "reactive-jammer";
    act =
      (fun ~round:_ ->
        (* Rank channels by last round's honest traffic; random tiebreak. *)
        let keyed =
          Array.to_list
            (Array.mapi
               (fun chan hits -> (hits, Prng.Rng.int rng 1_000_000, chan))
               last_traffic)
        in
        let ranked =
          List.sort
            (fun (h1, r1, c1) (h2, r2, c2) ->
              (* Descending (hits, tiebreak, chan): b-vs-a of the old
                 polymorphic sort, spelled out monomorphically. *)
              let c = Int.compare h2 h1 in
              if c <> 0 then c
              else
                let c = Int.compare r2 r1 in
                if c <> 0 then c else Int.compare c2 c1)
            keyed
        in
        List.filteri (fun i _ -> i < budget) ranked
        |> List.map (fun (_, _, chan) -> { chan; spoof = None }));
    observe =
      Some
        (fun record ->
          Array.fill last_traffic 0 channels 0;
          List.iter
            (fun (_, chan, _) -> last_traffic.(chan) <- last_traffic.(chan) + 1)
            record.Transcript.honest_tx) }

let energy_bounded ~total inner =
  let remaining = ref total in
  { name = Printf.sprintf "%s[energy<=%d]" inner.name total;
    act =
      (fun ~round ->
        if !remaining <= 0 then []
        else begin
          let strikes = List.filteri (fun i _ -> i < !remaining) (inner.act ~round) in
          remaining := !remaining - List.length strikes;
          strikes
        end);
    observe = inner.observe }
