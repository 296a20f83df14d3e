type outcome = {
  engine : Radio.Engine.result;
  leader_keys : (int * string) list array;
  group_key : string option array;
}

(* (leader id, key) order: id first, then key bytes. *)
let keyed_compare (a, x) (b, y) =
  if a <> b then Int.compare a b else String.compare x y

let run ~cfg ~pairwise ~proposals ~complete_leaders ~excluded ~part2_reps ~part3_reps
    ~adversary () =
  let n = cfg.Radio.Config.n in
  let t = cfg.Radio.Config.t in
  let channels = cfg.Radio.Config.channels in
  let leaders = List.init (t + 1) Fun.id in
  let part2_epochs =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun w -> if w <> v && not (List.mem w excluded) then Some (v, w) else None)
          (List.init n Fun.id))
      leaders
  in
  let reporter_ids =
    List.filter
      (fun i -> not (List.mem i excluded))
      (List.init ((2 * t) + 1) (fun i -> t + 1 + i))
  in
  let leader_keys_out = Array.make n [] in
  let reports_out = Array.make n [] in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let my_pairs = pairwise id in
    let my_leader_keys : (int * string) list ref = ref [] in
    let my_reports : (int * int * string) list ref = ref [] in
    let am_complete_leader = List.mem id complete_leaders in
    (* Part 2: one epoch per (leader, receiver) pair. *)
    List.iter
      (fun (v, w) ->
        let pair_key =
          if id = v || id = w then
            List.assoc_opt (if id = v then w else v) my_pairs
          else None
        in
        match pair_key with
        | None ->
          for _ = 1 to part2_reps do
            Radio.Engine.idle ()
          done
        | Some key ->
          (* The pair key is fixed for the whole epoch: prepare the hop PRF
             and cipher midstates once, not once per repetition. *)
          let hop_prf = Crypto.Prf.Keyed.create key in
          let ck = Crypto.Cipher.key key in
          for _ = 1 to part2_reps do
            let round = Radio.Engine.current_round () in
            let chan = Crypto.Prf.Keyed.channel_hop hop_prf ~round ~channels in
            if id = v then begin
              let payload = if am_complete_leader then "K" ^ proposals id else "I" in
              let sealed = Crypto.Cipher.seal_keyed ck ~nonce:(Int64.of_int round) payload in
              Radio.Engine.transmit ~chan (Radio.Frame.Sealed (Crypto.Cipher.encode sealed))
            end
            else begin
              match Radio.Engine.listen ~chan with
              | Some (Radio.Frame.Sealed blob) ->
                (match Crypto.Cipher.decode blob with
                 | Some sealed ->
                   (match Crypto.Cipher.open_keyed ck sealed with
                    | Some payload when String.length payload > 0 && payload.[0] = 'K' ->
                      let k = String.sub payload 1 (String.length payload - 1) in
                      if not (List.mem_assoc v !my_leader_keys) then
                        my_leader_keys := (v, k) :: !my_leader_keys
                    | Some _ | None -> ())
                 | None -> ())
              | Some _ | None -> ()
            end
          done)
      part2_epochs;
    (* Leaders know their own proposal. *)
    if am_complete_leader && not (List.mem_assoc id !my_leader_keys) then
      my_leader_keys := (id, proposals id) :: !my_leader_keys;
    (* Part 3: one epoch per reporter. *)
    List.iter
      (fun i ->
        let my_smallest =
          match List.sort keyed_compare !my_leader_keys with (j, _) :: _ -> Some j | [] -> None
        in
        (* The report is identical for every repetition of the epoch: hash
           the key once. *)
        let my_report =
          if id = i then
            match my_smallest with
            | Some j ->
              let key_hash = Crypto.Sha256.digest (List.assoc j !my_leader_keys) in
              Some (Radio.Frame.Report { reporter = i; leader = j; key_hash })
            | None -> None
          else None
        in
        for _ = 1 to part3_reps do
          if id = i then begin
            match my_report with
            | Some frame -> Radio.Engine.transmit ~chan:(Prng.Rng.int ctx.rng channels) frame
            | None -> Radio.Engine.idle ()
          end
          else begin
            match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.rng channels) with
            | Some (Radio.Frame.Report { reporter; leader; key_hash }) ->
              if not (List.mem (reporter, leader, key_hash) !my_reports) then
                my_reports := (reporter, leader, key_hash) :: !my_reports
            | Some _ | None -> ()
          end
        done)
      reporter_ids;
    leader_keys_out.(id) <- List.sort keyed_compare !my_leader_keys;
    reports_out.(id) <- !my_reports
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  (* Agreement rule, evaluated per node on its own observations. *)
  let adopt id =
    let known = leader_keys_out.(id) in
    let verified_support j =
      match List.assoc_opt j known with
      | None -> 0
      | Some k ->
        let h = Crypto.Sha256.digest k in
        List.length
          (List.sort_uniq Int.compare
             (List.filter_map
                (fun (reporter, leader, key_hash) ->
                  if leader = j && key_hash = h then Some reporter else None)
                reports_out.(id)))
    in
    List.find_map
      (fun j -> if verified_support j >= t + 1 then List.assoc_opt j known else None)
      leaders
  in
  { engine; leader_keys = leader_keys_out; group_key = Array.init n adopt }
