type outcome = {
  engine : Radio.Engine.result;
  delivered : ((int * int) * string) list;
  failed : (int * int) list;
  disruption_vc : int option;
  diverged : bool;
  moves : int;
}

module Int_set = Set.Make (Int)

module Edge_set = Set.Make (struct
  type t = Rgraph.Digraph.edge

  let compare = Rgraph.Digraph.edge_compare
end)

(* Greedy maximal set of node-disjoint edges, in sorted order. *)
let disjoint_batch edges ~limit =
  let rec go acc used = function
    | [] -> List.rev acc
    | (v, w) :: rest ->
      if List.length acc >= limit then List.rev acc
      else if Int_set.mem v used || Int_set.mem w used then go acc used rest
      else go ((v, w) :: acc) (Int_set.add v (Int_set.add w used)) rest
  in
  go [] Int_set.empty edges

let run ?(ame_params = Params.default) ?channels_used ~cfg ~pairs ~messages ~adversary () =
  let channels = cfg.Radio.Config.channels in
  let budget = cfg.Radio.Config.t in
  let n = cfg.Radio.Config.n in
  let channels_used = Option.value channels_used ~default:channels in
  if channels_used > channels || channels_used <= budget then
    invalid_arg "Direct.run: invalid channels_used";
  List.iter Rgraph.Digraph.check pairs;
  (* Each node's undelivered pairs, as a sorted set: a bitset graph would
     cost O(n) words per node. *)
  let all_pairs = Edge_set.of_list pairs in
  let watchers_per_channel = Params.watchers_per_channel ame_params ~budget ~channels in
  let reps = Params.feedback_reps ame_params ~channels ~budget ~n in
  let board = Oracle.create () in
  let delivered_cells : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let diverged = ref false in
  let moves_counter = ref 0 in
  (* Shared across all node fibers of this run: builds interleave on one
     domain and never span a suspension, so they cannot overlap. *)
  let sched_scratch = Schedule.make_scratch () in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let feedback_scratch = Feedback.make_scratch ~reps in
    let remaining = ref all_pairs in
    let rec play () =
      let batch = disjoint_batch (Edge_set.elements !remaining) ~limit:channels_used in
      (* With <= t schedulable edges the adversary can jam them all, every
         move: no further progress is guaranteed, so the protocol stops. *)
      if List.length batch <= budget then ()
      else begin
        let proposal = List.map (fun e -> Game.State.Edge e) batch in
        match
          Schedule.build ~scratch:sched_scratch ~proposal ~surrogates:(fun _ -> [||]) ~n
            ~witness_size:channels ~watchers_per_channel ()
        with
        | exception Schedule.Divergence _ -> diverged := true
        | sched ->
          let msg_round = Radio.Engine.current_round () in
          Oracle.post board ~round:msg_round (Schedule.oracle_entry sched);
          let my_recv = ref None in
          (match Schedule.role_of sched id with
           | Schedule.Broadcast { channel; owner } ->
             (* Sources broadcast their own single message: no vectors. *)
             let entries =
               List.filter_map
                 (fun (v, w) -> if v = owner then Some (w, messages (v, w)) else None)
                 batch
             in
             Radio.Engine.transmit ~chan:channel (Radio.Frame.Vector { owner; entries })
           | Schedule.Receive { channel; _ } -> my_recv := Radio.Engine.listen ~chan:channel
           | Schedule.Watch { channel } -> my_recv := Radio.Engine.listen ~chan:channel
           | Schedule.Off -> Radio.Engine.idle ());
          let my_flag = Option.is_some !my_recv in
          let d =
            Feedback.run ~scratch:feedback_scratch ~my_id:id ~rng:ctx.rng ~channels
              ~witnesses:sched.Schedule.watchers ~witness_size:channels ~my_flag
          in
          let successes = List.filter (fun c -> c < Array.length sched.Schedule.items) d in
          List.iter
            (fun c ->
              match sched.Schedule.items.(c) with
              | Game.State.Edge (v, w) ->
                if id = w then begin
                  match !my_recv with
                  | Some (Radio.Frame.Vector { owner; entries }) when owner = v ->
                    (match List.assoc_opt w entries with
                     | Some body -> Hashtbl.replace delivered_cells (v, w) body
                     | None -> ())
                  | _ -> ()
                end;
                remaining := Edge_set.remove (v, w) !remaining
              | Game.State.Node _ -> ())
            successes;
          if id = 0 then incr moves_counter;
          if successes = [] then diverged := true
          else if not !diverged then play ()
      end
    in
    play ()
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary:(adversary board) node_body in
  let delivered = Det.bindings delivered_cells in
  let failed =
    List.sort Rgraph.Digraph.edge_compare
      (List.filter (fun pair -> not (Hashtbl.mem delivered_cells pair)) pairs)
  in
  let disruption_vc =
    if List.length failed <= 64 then
      Some (Rgraph.Vertex_cover.minimum_size_dense (Rgraph.Digraph.Dense.of_edges failed))
    else None
  in
  { engine; delivered; failed; disruption_vc; diverged = !diverged; moves = !moves_counter }
