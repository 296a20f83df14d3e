type calendar = {
  epoch_rounds : int;
  epochs : ((int * int) * int * int) array;
}

let out_edges_of pairs v =
  List.sort Int.compare (List.filter_map (fun (x, w) -> if x = v then Some w else None) pairs)

let owners_of pairs =
  List.sort_uniq Int.compare (List.map fst pairs)

let make_calendar ~pairs ~budget ~n =
  let t1 = float_of_int (budget + 1) in
  let epoch_rounds = Radio.Config.reps ~scale:(3.0 *. t1 *. t1) ~n in
  let epochs =
    List.concat_map
      (fun v ->
        let dests = out_edges_of pairs v in
        let k = List.length dests in
        List.mapi (fun i w -> ((v, w), i, k)) dests)
      (owners_of pairs)
  in
  { epoch_rounds; epochs = Array.of_list epochs }

let epoch_of_round cal round =
  let e = round / cal.epoch_rounds in
  if e >= 0 && e < Array.length cal.epochs then Some cal.epochs.(e) else None

let encode_chain bodies =
  let buf = Buffer.create 64 in
  List.iter
    (fun b ->
      Buffer.add_string buf (string_of_int (String.length b));
      Buffer.add_char buf ':';
      Buffer.add_string buf b)
    bodies;
  Buffer.contents buf

let hash_chain bodies = Crypto.Sha256.digest ("H1|" ^ encode_chain bodies)

let vector_signature bodies = Crypto.Sha256.digest ("H2|" ^ encode_chain bodies)

let chain_spoofer rng cal ~channels ~budget =
  let counter = ref 0 in
  { Radio.Adversary.name = "chain-spoofer";
    act =
      (fun ~round ->
        match epoch_of_round cal round with
        | None -> []
        | Some ((v, _), index, _) ->
          let arr = Array.init channels Fun.id in
          Prng.Rng.shuffle rng arr;
          List.init (min budget channels) (fun i ->
              incr counter;
              let body = Printf.sprintf "SPOOF-%d" !counter in
              { Radio.Adversary.chan = arr.(i);
                spoof =
                  Some
                    (Radio.Frame.Chain
                       { owner = v; index; body; recon_hash = hash_chain [ body ] }) }));
    observe = None }

type outcome = {
  gossip_engine : Radio.Engine.result;
  fame : Fame.outcome;
  delivered : ((int * int) * string) list;
  failed : (int * int) list;
  reconstruction_failures : int;
  max_honest_payload : int;
}

(* Phase B: backwards decoration.  Candidates per level are (body, hash)
   pairs; a chain survives level i when its head's hash equals
   hash_chain of the whole remaining chain. *)
let reconstruct ~levels =
  let k = Array.length levels in
  if k = 0 then []
  else begin
    let suffixes = ref [] in
    for i = k - 1 downto 0 do
      let extend (body, hash) =
        if i = k - 1 then if hash = hash_chain [ body ] then Some [ body ] else None
        else
          List.find_map
            (fun suffix ->
              if hash = hash_chain (body :: suffix) then Some (body :: suffix) else None)
            !suffixes
      in
      suffixes := List.filter_map extend levels.(i)
    done;
    !suffixes
  end

(* Stored candidates per (owner, level): the bound against spoof floods. *)
let candidate_cap = 256

let run ~cfg ~pairs ~messages ~gossip_adversary ~fame_adversary () =
  let channels = cfg.Radio.Config.channels in
  let budget = cfg.Radio.Config.t in
  let n = cfg.Radio.Config.n in
  let cal = make_calendar ~pairs ~budget ~n in
  let total_rounds = Array.length cal.epochs * cal.epoch_rounds in
  (* Per-node candidate store: (owner, level) -> (body, hash) list. *)
  let cands = Array.init n (fun _ -> Hashtbl.create 64) in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let my_dests = out_edges_of pairs id in
    let my_bodies = List.map (fun w -> messages (id, w)) my_dests in
    for round = 0 to total_rounds - 1 do
      match epoch_of_round cal round with
      | None -> Radio.Engine.idle ()
      | Some ((v, _), index, _) ->
        if v = id then begin
          (* My epoch: broadcast m_id,index with the reconstruction hash of
             the chain from index to the end. *)
          let rec drop i = function
            | [] -> []
            | _ :: tl when i > 0 -> drop (i - 1) tl
            | l -> l
          in
          (match drop index my_bodies with
           | body :: _ as tail ->
             let frame =
               Radio.Frame.Chain { owner = id; index; body; recon_hash = hash_chain tail }
             in
             Radio.Engine.transmit ~chan:(Prng.Rng.int ctx.rng channels) frame
           | [] ->
             (* Calendar epoch beyond my out-degree: nothing to send. *)
             Radio.Engine.idle ())
        end
        else begin
          match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.rng channels) with
          | Some (Radio.Frame.Chain { owner; index; body; recon_hash }) ->
            let key = (owner, index) in
            let existing = Option.value (Hashtbl.find_opt cands.(id) key) ~default:[] in
            if
              List.length existing < candidate_cap
              && not (List.mem (body, recon_hash) existing)
            then Hashtbl.replace cands.(id) key ((body, recon_hash) :: existing)
          | Some _ | None -> ()
        end
    done
  in
  let gossip_engine =
    Radio.Engine.run_nodes cfg ~adversary:(gossip_adversary cal) node_body
  in
  (* Phase C: f-AME over constant-size vector signatures. *)
  let signature_of v =
    vector_signature (List.map (fun w -> messages (v, w)) (out_edges_of pairs v))
  in
  let fame =
    Fame.run ~cfg ~pairs
      ~messages:(fun (v, _) -> signature_of v)
      ~vector_for:(fun v -> [ (-1, signature_of v) ])
      ~adversary:fame_adversary ()
  in
  (* Destination-side reconstruction: match the authenticated signature
     against locally rebuilt chains. *)
  let reconstruction_failures = ref 0 in
  let delivered =
    List.filter_map
      (fun ((v, w), sig_received) ->
        let k = List.length (out_edges_of pairs v) in
        let levels =
          Array.init k (fun i -> Option.value (Hashtbl.find_opt cands.(w) (v, i)) ~default:[])
        in
        let chains = reconstruct ~levels in
        match List.find_opt (fun chain -> vector_signature chain = sig_received) chains with
        | Some chain ->
          let index =
            let dests = out_edges_of pairs v in
            let rec find i = function
              | [] -> -1
              | d :: _ when d = w -> i
              | _ :: tl -> find (i + 1) tl
            in
            find 0 dests
          in
          (match if index < 0 then None else List.nth_opt chain index with
           | Some body -> Some ((v, w), body)
           | None ->
             incr reconstruction_failures;
             None)
        | None ->
          incr reconstruction_failures;
          None)
      fame.Fame.delivered
  in
  let delivered =
    List.sort
      (fun (p, x) (q, y) ->
        let c = Rgraph.Digraph.edge_compare p q in
        if c <> 0 then c else String.compare x y)
      delivered
  in
  let failed =
    List.sort Rgraph.Digraph.edge_compare
      (List.filter (fun pair -> not (List.mem_assoc pair delivered)) pairs)
  in
  { gossip_engine; fame; delivered; failed;
    reconstruction_failures = !reconstruction_failures;
    max_honest_payload =
      max gossip_engine.Radio.Engine.stats.Radio.Transcript.Stats.max_payload
        fame.Fame.engine.Radio.Engine.stats.Radio.Transcript.Stats.max_payload }
