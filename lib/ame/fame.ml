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

type play = Game | Direct

type feedback_mode = Sequential | Tree

type corruption = Forge_as_surrogate | Lie_as_witness | Full

module Int_map = Map.Make (Int)

(* One referee step: what every node in a given game state computes for
   the next move (Invariant 1). *)
type plan =
  | Done  (** no proposal: the game is over *)
  | Diverge  (** no legal schedule ([Schedule.Divergence]) *)
  | Move of {
      sched : Schedule.t;
      entry : Oracle.entry;
      tree_this_move : bool;
      witness_size : int;
    }

(* A node of the run's move tree: one distinct game state, reached by the
   sequence of referee responses (the [successes] lists) from the root.
   Fibers that agree on every response share a position, so its plan is
   computed once and read by all of them; a fiber whose D differs moves to
   a different child, and divergence shows exactly as it would if every
   fiber kept its own copy. *)
type position = {
  state : Game.State.t;
  surrogate_map : int array Int_map.t;  (** v -> the watchers of v's starring round *)
  plan : plan Lazy.t;
  digest : string Lazy.t;  (** canonical serialization of [state] *)
  mutable children : (int list * position) list;  (** keyed by [successes] *)
}

(* Greedy node-disjoint batch of at most [limit] edges, in the graph's
   ascending edge order: the direct baseline's proposal. *)
let disjoint_batch graph ~limit =
  let used = Rgraph.Bitset.create (Rgraph.Digraph.Dense.universe graph) in
  let free v = not (Rgraph.Bitset.mem used v) in
  let rec go size = function
    | (v, w) :: rest when size < limit ->
      if free v && free w then begin
        Rgraph.Bitset.set used v;
        Rgraph.Bitset.set used w;
        Game.State.Edge (v, w) :: go (size + 1) rest
      end
      else go size rest
    | _ -> []
  in
  go 0 (Rgraph.Digraph.Dense.edges graph)

(* Canonical serialization, not [Hashtbl.hash]: the polymorphic hash is no
   cross-host fingerprint, and divergence detection only needs equality of
   the final states. *)
let state_digest (state : Game.State.t) =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i (v, w) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int w))
    (* Dense.edges is already in ascending lexicographic order. *)
    (Rgraph.Digraph.Dense.edges state.Game.State.graph);
  Buffer.add_char buf '|';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    state.Game.State.starred;
  Buffer.contents buf

let run ?(ame_params = Params.default) ?channels_used ?(play = Game)
    ?(feedback_mode = Sequential) ?vector_for ?(corrupted = []) ?(corruption = Full) ~cfg
    ~pairs ~messages ~adversary () =
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
      if v < 0 || v >= n || w < 0 || w >= n then invalid_arg "Fame.run: pair out of range")
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
  (* The proposal of a game state.  With t or fewer node-disjoint edges
     left, the adversary can jam every direct move, so the direct play
     stops there. *)
  let proposal_of state =
    match play with
    | Game -> Game.Greedy.proposal state
    | Direct ->
      let batch = disjoint_batch state.Game.State.graph ~limit:channels_used in
      if List.length batch <= budget then None else Some batch
  in
  (* The referee step of a game state.  Tree feedback only fits full
     power-of-two proposals; a smaller tail proposal (still > t items)
     falls back to the sequential routine for that move.  The schedule is
     built without a scratch, so it owns its role table, which stays valid
     for every fiber of the move whatever is built meanwhile. *)
  let plan_of state surrogate_map =
    match proposal_of state with
    | None -> Done
    | Some proposal ->
      let tree_this_move = feedback_mode = Tree && List.length proposal = channels_used in
      let witness_size = if tree_this_move then budget + 1 else channels in
      let surrogates v = Option.value (Int_map.find_opt v surrogate_map) ~default:[||] in
      (match
         Schedule.build ~proposal ~surrogates ~n ~witness_size ~watchers_per_channel ()
       with
       | exception Schedule.Divergence _ -> Diverge
       | sched ->
         Move { sched; entry = Schedule.oracle_entry sched; tree_this_move; witness_size })
  in
  let position state surrogate_map =
    { state; surrogate_map;
      plan = lazy (plan_of state surrogate_map);
      digest = lazy (state_digest state);
      children = [] }
  in
  (* The position after [successes]: the referee chooses the items on the
     successful channels, and a chosen node's watchers become its
     surrogates (the watcher array is immutable after the build, so the
     map shares it).  Made by the first fiber to get this response. *)
  let child pos (sched : Schedule.t) successes =
    match List.find_opt (fun (key, _) -> List.equal Int.equal key successes) pos.children with
    | Some (_, next) -> next
    | None ->
      let chosen = List.map (fun c -> sched.Schedule.items.(c)) successes in
      let surrogate_map =
        List.fold_left
          (fun map c ->
            match sched.Schedule.items.(c) with
            | Game.State.Node v -> Int_map.add v sched.Schedule.watchers.(c) map
            | Game.State.Edge _ -> map)
          pos.surrogate_map successes
      in
      let next = position (Game.State.apply pos.state chosen) surrogate_map in
      pos.children <- (successes, next) :: pos.children;
      next
  in
  (* The initial game state is immutable and identical for every node;
     build it once instead of n times (its universe set is the costly
     part).  Every fiber starts at the root; the run drops its reference
     once the last fiber has taken it, so positions every fiber has left
     are collected as the run goes. *)
  let root =
    ref
      (Some
         (position
            (Game.State.create_dense ~proposal_size:channels_used ~min_proposal:(budget + 1)
               graph ~t:budget)
            Int_map.empty))
  in
  let unstarted = ref n in
  let take_root () =
    match !root with
    | None -> invalid_arg "Fame.run: more fibers than nodes"
    | Some pos ->
      decr unstarted;
      if !unstarted = 0 then root := None;
      pos
  in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    (* The vectors this node holds, by owner: its own, and one per move at
       most as a watcher, so a short association list beats a hash table
       that every one of n fibers would keep for the whole run. *)
    let known = ref [ (id, vector_for id) ] in
    let rec play pos =
      match Lazy.force pos.plan with
      | Done -> pos
      | Diverge ->
        diverged := true;
        pos
      | Move { sched; entry; tree_this_move; witness_size } ->
        Oracle.post board ~round:(Radio.Engine.current_round ()) entry;
        let my_role = Schedule.role_of sched id in
        (* Message-transmission phase: one round.  An off-schedule node
           does not idle through it here: the round is the [wait] of its
           feedback listener series, so the node suspends once per move. *)
        let my_recv =
          match my_role with
          | Schedule.Broadcast { channel; owner } ->
            (match List.assoc_opt owner !known with
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
               Radio.Engine.idle ());
            None
          | Schedule.Receive { channel; _ } | Schedule.Watch { channel } ->
            Radio.Engine.listen ~chan:channel
          | Schedule.Off -> None
        in
        let wait = match my_role with Schedule.Off -> 1 | _ -> 0 in
        (* Feedback phase.  A corrupted witness lies about its channel's
           outcome — the second Byzantine attack of E13: unlike the
           surrogate forgery, this one attacks agreement itself, since
           honest witnesses of the same channel contradict the liar and
           different listeners may believe different reporters. *)
        let my_flag =
          let real = Option.is_some my_recv in
          if lies && List.mem id corrupted then not real else real
        in
        let d =
          if tree_this_move then
            Tree_feedback.run ~my_id:id ~rng:ctx.rng ~channels ~budget ~reps:tree_reps
              ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag ~wait
          else
            Feedback.run ~reps:sequential_reps ~my_id:id ~rng:ctx.rng ~channels
              ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag ~wait
        in
        (* Referee simulation: items on successful channels are chosen. *)
        let successes = List.filter (fun c -> c < Array.length sched.Schedule.items) d in
        let pos =
          match successes with
          | [] ->
            (* Impossible unless a whp event failed: at most t of the
               channels_used > t channels can be disrupted. *)
            diverged := true;
            pos
          | _ ->
            (* This node's own bookkeeping for each successful channel. *)
            List.iter
              (fun c ->
                match sched.Schedule.items.(c) with
                | Game.State.Node v ->
                  (match (my_role, my_recv) with
                   | Schedule.Watch { channel }, Some (Radio.Frame.Vector { owner; entries })
                     when channel = c && owner = v ->
                     known := (v, entries) :: List.remove_assoc v !known
                   | _ -> ())
                | Game.State.Edge (v, w) ->
                  if id = w then begin
                    match my_recv with
                    | Some (Radio.Frame.Vector { owner; entries }) when owner = v ->
                      (match extract_entry entries ~dst:w with
                       | Some body -> Hashtbl.replace delivered_cells (v, w) body
                       | None -> ())
                    | _ -> ()
                  end;
                  if id = v then Hashtbl.replace confirmed_cells (v, w) ())
              successes;
            child pos sched successes
        in
        if id = 0 then incr moves_counter;
        if !diverged then pos else play pos
    in
    let final = play (take_root ()) in
    final_digests.(id) <- Lazy.force final.digest
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
