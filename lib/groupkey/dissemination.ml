module Service = Secure_channel.Service

type outcome = {
  engine : Radio.Engine.result;
  leader_keys : (int * string) list array;
  group_key : string option array;
}

(* (leader id, key) order: id first, then key bytes. *)
let keyed_compare (a, x) (b, y) =
  if a <> b then Int.compare a b else String.compare x y

let run ~cfg ~pairwise ~proposals ~complete_leaders ~excluded ~adversary () =
  let n = cfg.Radio.Config.n in
  let t = cfg.Radio.Config.t in
  let channels = cfg.Radio.Config.channels in
  (* A Part 2 epoch is one sealed-hop emulated round; a Part 3 epoch is
     Theta(t^2 log n) rounds. *)
  let part2_reps = Service.reps cfg in
  let part3_reps = Radio.Config.reps ~scale:(4.0 *. float_of_int ((t + 1) * (t + 1))) ~n in
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
        | None -> Radio.Engine.idle_for part2_reps
        | Some key ->
          let link = Service.link ~label:"channel-hop" ~key ~cfg in
          if id = v then
            Service.send link ~sender:id
              (if am_complete_leader then "K" ^ proposals id else "I")
          else
            (* Keep the first complete leader's proposal. *)
            Service.listen link (fun payload ->
                let complete = String.length payload > 0 && payload.[0] = 'K' in
                if complete then
                  my_leader_keys :=
                    (v, String.sub payload 1 (String.length payload - 1)) :: !my_leader_keys;
                not complete))
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

let majority ?(skip = fun _ -> false) group_key =
  let tally = Hashtbl.create 8 in
  Array.iteri
    (fun id k ->
      match k with
      | Some k when not (skip id) ->
        Hashtbl.replace tally k (1 + Option.value (Hashtbl.find_opt tally k) ~default:0)
      | _ -> ())
    group_key;
  Det.fold (fun k c (bk, bc) -> if c > bc then (Some k, c) else (bk, bc)) tally (None, 0)
