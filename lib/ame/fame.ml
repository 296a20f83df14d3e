type outcome = {
  engine : Radio.Engine.result;
  delivered : ((int * int) * string) list;
  confirmed : (int * int) list;
  failed : (int * int) list;
  disruption_vc : int option;
  diverged : bool;
  moves : int;
}

let default_vector ~messages ~pairs v =
  List.filter_map (fun (x, w) -> if x = v then Some (w, messages (x, w)) else None) pairs

let extract_entry entries ~dst =
  match List.assoc_opt dst entries with
  | Some body -> Some body
  | None -> List.assoc_opt (-1) entries

type feedback_mode = Sequential | Tree

type corruption = Forge_as_surrogate | Lie_as_witness | Full

let run ?(ame_params = Params.default) ?channels_used ?(feedback_mode = Sequential)
    ?vector_for ?(corrupted = []) ?(corruption = Full) ~cfg ~pairs ~messages ~adversary () =
  let forges = corruption = Forge_as_surrogate || corruption = Full in
  let lies = corruption = Lie_as_witness || corruption = Full in
  let channels = cfg.Radio.Config.channels in
  let budget = cfg.Radio.Config.t in
  let n = cfg.Radio.Config.n in
  let channels_used = Option.value channels_used ~default:channels in
  if channels_used > channels || channels_used < 1 then
    invalid_arg "Fame.run: channels_used out of range";
  if channels_used <= budget then
    invalid_arg "Fame.run: proposal size must exceed the adversary budget";
  (match feedback_mode with
   | Sequential -> ()
   | Tree ->
     if channels_used land (channels_used - 1) <> 0 then
       invalid_arg "Fame.run: tree feedback needs a power-of-two channels_used";
     if channels_used / 2 * budget > channels then
       invalid_arg "Fame.run: tree feedback needs (channels_used/2)*t <= C");
  let watchers_per_channel = Params.watchers_per_channel ame_params ~budget ~channels in
  if n < Params.nodes_required ame_params ~channels_used ~budget ~channels then
    invalid_arg
      (Printf.sprintf "Fame.run: n=%d too small; need >= %d" n
         (Params.nodes_required ame_params ~channels_used ~budget ~channels));
  let sequential_reps = Params.feedback_reps ame_params ~channels ~budget ~n in
  let tree_reps = Params.tree_reps ame_params ~n in
  List.iter
    (fun (v, w) ->
      if v < 0 || v >= n || w < 0 || w >= n then invalid_arg "Fame.run: pair out of range";
      ignore (v, w))
    pairs;
  (* Dense over the inferred endpoint range (not all of 0..n-1): game
     bitsets stay as wide as the exchange actually is. *)
  let graph = Rgraph.Digraph.Dense.of_edges pairs in
  let vector_for = Option.value vector_for ~default:(default_vector ~messages ~pairs) in
  (* Shared (runner-side) result cells; node fibers write, runner reads. *)
  let board = Oracle.create () in
  let delivered_cells : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let confirmed_cells : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let diverged = ref false in
  let moves_counter = ref 0 in
  let final_digests = Array.make n "" in
  (* The initial game state is immutable and identical for every node;
     build it once instead of n times (its universe set is the costly
     part). *)
  let initial_state =
    Game.State.create_dense ~proposal_size:channels_used ~min_proposal:(budget + 1) graph
      ~t:budget
  in
  (* One claimed-node workspace for every schedule build of this run: all
     node fibers interleave on the engine's domain and a build never spans
     a suspension, so the builds cannot overlap. *)
  let sched_scratch = Schedule.make_scratch () in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    (* Made once per fiber, not per move: fibers stay parked across minor
       collections, so per-move buffers would all be promoted. *)
    let feedback_scratch = Feedback.make_scratch ~reps:sequential_reps in
    let state = ref initial_state in
    let surrogate_map : (int, int array) Hashtbl.t = Hashtbl.create 16 in
    let known : (int, (int * string) list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace known id (vector_for id);
    let surrogates v = Option.value (Hashtbl.find_opt surrogate_map v) ~default:[||] in
    let rec play () =
      match Game.Greedy.proposal !state with
      | None -> ()
      | Some proposal ->
        (* Tree feedback only fits full power-of-two proposals; a smaller
           tail proposal (still > t items) falls back to the sequential
           routine for that move.  The choice is a deterministic function of
           the proposal, so all nodes agree on it. *)
        let tree_this_move =
          feedback_mode = Tree && List.length proposal = channels_used
        in
        let witness_size = if tree_this_move then budget + 1 else channels in
        (match
           Schedule.build ~scratch:sched_scratch ~proposal ~surrogates ~n ~witness_size
             ~watchers_per_channel ()
         with
         | exception Schedule.Divergence _ -> diverged := true
         | sched ->
           let msg_round = Radio.Engine.current_round () in
           Oracle.post board ~round:msg_round (Schedule.oracle_entry sched);
           (* Query the role once, right after the build: the inverted index
              is still generation-current here (no suspension since the
              build), so this is the O(1) path; the role is reused below in
              the successes pass, where interleaved builds by other fibers
              have already retired the index. *)
           let my_role = Schedule.role_of sched id in
           (* Message-transmission phase: one round. *)
           let my_recv = ref None in
           (match my_role with
            | Schedule.Broadcast { channel; owner } ->
              (match Hashtbl.find_opt known owner with
               | Some entries ->
                 (* A corrupted node acting as a surrogate forges the owner's
                    vector: the receiver cannot tell (the channel is the
                    scheduled one), which is the Byzantine attack of E13. *)
                 let entries =
                   if forges && owner <> id && List.mem id corrupted then
                     List.map (fun (dst, _) -> (dst, Printf.sprintf "FORGED-by-%d" id)) entries
                   else entries
                 in
                 Radio.Engine.transmit ~chan:channel (Radio.Frame.Vector { owner; entries })
               | None ->
                 (* Scheduled as surrogate without the vector: a divergence. *)
                 diverged := true;
                 Radio.Engine.idle ())
            | Schedule.Receive { channel; _ } ->
              my_recv := Radio.Engine.listen ~chan:channel
            | Schedule.Watch { channel } -> my_recv := Radio.Engine.listen ~chan:channel
            | Schedule.Off -> Radio.Engine.idle ());
           (* Feedback phase.  A corrupted witness lies about its channel's
              outcome — the second Byzantine attack of E13: unlike the
              surrogate forgery, this one attacks agreement itself, since
              honest witnesses of the same channel contradict the liar and
              different listeners may believe different reporters. *)
           let my_flag =
             let real = Option.is_some !my_recv in
             if lies && List.mem id corrupted then not real else real
           in
           let d =
             if tree_this_move then
               Tree_feedback.run ~my_id:id ~rng:ctx.rng ~channels ~budget ~reps:tree_reps
                 ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag
             else
               Feedback.run ~scratch:feedback_scratch ~my_id:id ~rng:ctx.rng ~channels
                 ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag
           in
           (* Referee simulation: items on successful channels are chosen. *)
           let successes =
             List.filter (fun c -> c < Array.length sched.Schedule.items) d
           in
           if successes = [] then
             (* Impossible unless a whp event failed: at most t of the
                channels_used > t channels can be disrupted. *)
             diverged := true
           else begin
             (* One pass: record the bookkeeping for each successful channel
                and collect the chosen items for the referee apply. *)
             let chosen =
               List.map
                 (fun c ->
                   let item = sched.Schedule.items.(c) in
                   (match item with
                    | Game.State.Node v ->
                      (* The watcher array is immutable after the build, so
                         the surrogate record shares it — no per-success
                         copy. *)
                      Hashtbl.replace surrogate_map v sched.Schedule.watchers.(c);
                      (match (my_role, !my_recv) with
                       | Schedule.Watch { channel }, Some (Radio.Frame.Vector { owner; entries })
                         when channel = c && owner = v ->
                         Hashtbl.replace known v entries
                       | _ -> ())
                    | Game.State.Edge (v, w) ->
                      if id = w then begin
                        match !my_recv with
                        | Some (Radio.Frame.Vector { owner; entries }) when owner = v ->
                          (match extract_entry entries ~dst:w with
                           | Some body -> Hashtbl.replace delivered_cells (v, w) body
                           | None -> ())
                        | _ -> ()
                      end;
                      if id = v then Hashtbl.replace confirmed_cells (v, w) ());
                   item)
                 successes
             in
             state := Game.State.apply !state chosen
           end;
           if id = 0 then incr moves_counter;
           if not !diverged then play ())
    in
    play ();
    let final = !state in
    (* Canonical serialization, not [Hashtbl.hash]: the polymorphic hash is
       no cross-host fingerprint, and divergence detection only needs
       equality of the final states. *)
    let buf = Buffer.create 64 in
    List.iteri
      (fun i (v, w) ->
        if i > 0 then Buffer.add_char buf ';';
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int w))
      (* Dense.edges is already in ascending lexicographic order. *)
      (Rgraph.Digraph.Dense.edges final.Game.State.graph);
    Buffer.add_char buf '|';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int v))
      final.Game.State.starred;
    final_digests.(id) <- Buffer.contents buf
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary:(adversary board) node_body in
  let digest0 = final_digests.(0) in
  Array.iter (fun h -> if h <> digest0 then diverged := true) final_digests;
  let delivered = Det.bindings delivered_cells in
  let confirmed = Det.keys confirmed_cells in
  let failed =
    List.sort Rgraph.Digraph.edge_compare
      (List.filter (fun pair -> not (Hashtbl.mem delivered_cells pair)) pairs)
  in
  let disruption_vc =
    if List.length failed <= 64 then
      Some (Rgraph.Vertex_cover.minimum_size_dense (Rgraph.Digraph.Dense.of_edges failed))
    else None
  in
  { engine; delivered; confirmed; failed; disruption_vc; diverged = !diverged;
    moves = !moves_counter }
