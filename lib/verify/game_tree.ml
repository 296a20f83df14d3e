(* Exhaustive minimax over referee strategies for the removal game.

   The greedy player is deterministic, so the game tree branches only on
   the referee's response.  Distinct response orders can reach the same
   position (star v then w, or w then v), so the tree is really a DAG:
   each [explore] memoizes positions on a canonical digest in a table of
   its own and expands each once.  [strategies] still counts tree leaves
   (every complete referee strategy), which the f-AME strike enumeration
   must reproduce exactly. *)

module State = Game.State

type value = {
  moves : int;  (* worst-case moves to termination from this position *)
  leaves : int;  (* root-to-leaf paths below this position *)
  best : State.item list;  (* a response attaining [moves] *)
}

(* Canonical position digest: two independent 63-bit mixing lanes
   (splitmix-style xorshift-multiply) over the position's ints.
   Collisions between distinct positions are negligible (~2^-126 per
   pair); an exact key, the position spelled out as a string, makes
   [radio_verify --quick] 2.5x slower. *)
let mix h x =
  let h = h lxor x in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B03738712FAD5C9 in
  h lxor (h lsr 32)

type lanes = { mutable h1 : int; mutable h2 : int; mutable len : int }

let add_int b x =
  b.h1 <- mix b.h1 x;
  b.h2 <- mix b.h2 (x lxor 0x27D4EB2F165667C5);
  b.len <- b.len + 1

let digest (st : State.t) =
  let b = { h1 = 0x517CC1B727220A5; h2 = 0x2C62272E07BB0142; len = 0 } in
  add_int b (Rgraph.Digraph.Dense.universe st.State.graph);
  add_int b st.State.budget;
  add_int b st.State.min_proposal;
  add_int b st.State.max_proposal;
  List.iter (add_int b) st.State.starred;
  add_int b (-1);
  Rgraph.Digraph.Dense.iter_edges
    (fun (v, w) ->
      add_int b v;
      add_int b w)
    st.State.graph;
  (mix b.h1 b.len, mix b.h2 (b.len lxor 0x165667B19E3779F9))

let pp_items items =
  String.concat "+" (List.map (fun i -> Format.asprintf "%a" State.pp_item i) items)

let describe (st : State.t) =
  Printf.sprintf "edges=[%s] starred=[%s]"
    (String.concat ";"
       (List.map
          (fun (v, w) -> Printf.sprintf "%d,%d" v w)
          (Rgraph.Digraph.Dense.edges st.State.graph)))
    (String.concat ";" (List.map string_of_int st.State.starred))

(* Legal responses: subsets of the proposal keeping at least
   [max 1 (|P| - t)] items — the complement of a <= t strike. *)
let min_keep (st : State.t) len = max 1 (len - st.State.budget)

let items_of_mask arr mask =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then acc := arr.(i) :: !acc
  done;
  !acc

type result = {
  worst_moves : int;
  states : int;
  choices : int;
  strategies : int;
  violations : string list;
  worst_path : string list;
}

let explore root =
  (* The memo lives for this call only: the counters below must be a
     function of the instance, not of what else ran before it. *)
  let memo : (int * int, value) Hashtbl.t = Hashtbl.create 256 in
  let states = ref 0 and choices = ref 0 and violations = ref [] in
  let violation msg st = violations := (msg ^ " at " ^ describe st) :: !violations in
  let rec value st =
    let key = digest st in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = expand st in
      Hashtbl.replace memo key v;
      v
  and expand st =
    incr states;
    match Game.Greedy.proposal st with
    | None ->
      (* Lemma 3: greedy terminates only in won positions. *)
      if not (State.won st) then violation "terminal position not won" st;
      { moves = 0; leaves = 1; best = [] }
    | Some proposal ->
      (match State.check_proposal st proposal with
       | Ok () -> ()
       | Error msg -> violation ("greedy proposal illegal: " ^ msg) st);
      let arr = Array.of_list proposal in
      let len = Array.length arr in
      let keep = min_keep st len in
      let worst = ref (-1) and best = ref [] and leaves = ref 0 in
      for mask = 1 to (1 lsl len) - 1 do
        if Rgraph.Bitset.popcount_word mask >= keep then begin
          incr choices;
          let response = items_of_mask arr mask in
          let v = value (State.apply st response) in
          leaves := !leaves + v.leaves;
          if v.moves + 1 > !worst then begin
            worst := v.moves + 1;
            best := response
          end
        end
      done;
      { moves = !worst; leaves = !leaves; best = !best }
  in
  let v = value root in
  (* Reconstruct one worst-case play from the memo. *)
  let path = ref [] in
  let st = ref root in
  let steps = ref v.moves in
  while !steps > 0 do
    let here = value !st in
    path := pp_items here.best :: !path;
    st := State.apply !st here.best;
    decr steps
  done;
  { worst_moves = v.moves;
    states = !states;
    choices = !choices;
    strategies = v.leaves;
    violations = List.rev !violations;
    worst_path = List.rev !path }

exception Too_many of int

let strike_paths root ~limit =
  let count = ref 0 in
  let acc = ref [] in
  let rec walk st prefix =
    match Game.Greedy.proposal st with
    | None ->
      incr count;
      if !count > limit then raise (Too_many !count);
      acc := List.rev prefix :: !acc
    | Some proposal ->
      let arr = Array.of_list proposal in
      let len = Array.length arr in
      let max_jam = len - min_keep st len in
      for jam_mask = 0 to (1 lsl len) - 1 do
        if Rgraph.Bitset.popcount_word jam_mask <= max_jam then begin
          let jammed = ref [] in
          for i = len - 1 downto 0 do
            if jam_mask land (1 lsl i) <> 0 then jammed := i :: !jammed
          done;
          let survivors = items_of_mask arr (lnot jam_mask land ((1 lsl len) - 1)) in
          walk (State.apply st survivors) (!jammed :: prefix)
        end
      done
  in
  match walk root [] with
  | () -> Ok (List.rev !acc)
  | exception Too_many n ->
    Error
      (Printf.sprintf
         "strike-path enumeration exceeded the %d-leaf limit (at least %d): instance too \
          large for exhaustive engine replay"
         limit n)

type replay = {
  replay_moves : int;
  delivered_edges : (int * int) list;
  failed_edges : (int * int) list;
  proposal_sizes : int list;
}

let replay root ~jams =
  let delivered = ref [] and sizes = ref [] and moves = ref 0 in
  let rec loop st jams =
    match Game.Greedy.proposal st with
    | None -> st
    | Some proposal ->
      let jam, rest = match jams with [] -> ([], []) | j :: rest -> (j, rest) in
      let arr = Array.of_list proposal in
      let survivors = ref [] in
      Array.iteri
        (fun i item -> if not (List.mem i jam) then survivors := item :: !survivors)
        arr;
      let survivors = List.rev !survivors in
      List.iter
        (fun item ->
          match item with
          | State.Edge e -> delivered := e :: !delivered
          | State.Node _ -> ())
        survivors;
      sizes := Array.length arr :: !sizes;
      incr moves;
      loop (State.apply st survivors) rest
  in
  let final = loop root jams in
  { replay_moves = !moves;
    delivered_edges = List.sort Rgraph.Digraph.edge_compare !delivered;
    failed_edges = Rgraph.Digraph.Dense.edges final.State.graph;
    proposal_sizes = List.rev !sizes }
