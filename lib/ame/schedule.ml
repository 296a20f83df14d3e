exception Divergence of string

(* Claimed-node scratch: generation-stamped int arrays, so reusing them
   across builds costs one counter bump instead of an O(n) clear.  [build]
   runs once per node per move; before this was reusable, the per-build
   [Bytes.make n] was the dominant allocation of the f-AME epoch loop at
   population scale (n * moves large blocks straight into the major heap).

   [stamps] marks the nodes claimed by the current build; [role_data]
   carries, for every claimed node, its packed role (written by the same
   pass that claims it), so the build doubles as a one-pass inverted
   node->role index.  [gen] is monotonic across the scratch's whole
   lifetime — a regrow keeps counting rather than restarting, so an index
   taken from an earlier build can never be revalidated by accident. *)
type scratch = {
  mutable stamps : int array;
  mutable role_data : int array;
  mutable gen : int;
}

let make_scratch () = { stamps = [||]; role_data = [||]; gen = 0 }

(* Packed role: 2 kind bits, then the channel, then (for watchers) the rank
   within the channel's watcher array.  Channels fit in 32 bits and ranks in
   the bits above — far beyond any feasible proposal. *)
let kind_broadcast = 0
let kind_receive = 1
let kind_watch = 2

let[@inline] pack ~kind ~chan ~rank = kind lor (chan lsl 2) lor (rank lsl 34)
let[@inline] packed_kind d = d land 3
let[@inline] packed_chan d = (d lsr 2) land 0xFFFFFFFF
let[@inline] packed_rank d = d lsr 34

(* The inverted index is a view into its scratch: valid only while no later
   build has bumped the generation.  The lookups check and raise on a stale
   index, so a caller bug never turns into a wrong answer. *)
type index = { src : scratch; built_gen : int }

type t = {
  items : Game.State.item array;
  broadcaster : int array;
  owner : int array;
  receiver : int option array;
  watchers : int array array;
  witness_size : int;
  index : index;
}

let build ?scratch ~proposal ~surrogates ~n ~witness_size ~watchers_per_channel () =
  if watchers_per_channel < witness_size then
    invalid_arg "Schedule.build: watchers_per_channel must be >= witness_size";
  let items = Array.of_list proposal in
  let k = Array.length items in
  if k = 0 then raise (Divergence "empty proposal");
  let scratch = match scratch with Some s -> s | None -> make_scratch () in
  if Array.length scratch.stamps < n then begin
    (* Regrow without resetting [gen]: stale indexes into the old arrays
       must stay stale forever. *)
    scratch.stamps <- Array.make n 0;
    scratch.role_data <- Array.make n 0
  end;
  scratch.gen <- scratch.gen + 1;
  let used = scratch.stamps in
  let roles = scratch.role_data in
  let gen = scratch.gen in
  (* radio-lint: allow partial-array-unsafe — v < n guarded on the same line *)
  let is_used v = v < n && Array.unsafe_get used v = gen in
  let claim v role =
    if is_used v then raise (Divergence (Printf.sprintf "node %d claimed twice" v));
    if v >= 0 && v < n then begin
      (* radio-lint: allow partial-array-unsafe — 0 <= v < n guarded above *)
      Array.unsafe_set used v gen;
      (* radio-lint: allow partial-array-unsafe — same bounds as the stamp *)
      Array.unsafe_set roles v role
    end
  in
  (* Pass 1: receivers (edge destinations) and node-item broadcasters are
     forced; claim them (and record their roles) before choosing edge
     broadcasters. *)
  let receiver = Array.make k None in
  Array.iteri
    (fun c item ->
      match item with
      | Game.State.Node v -> claim v (pack ~kind:kind_broadcast ~chan:c ~rank:0)
      | Game.State.Edge (_, w) ->
        receiver.(c) <- Some w;
        claim w (pack ~kind:kind_receive ~chan:c ~rank:0))
    items;
  (* Pass 2: broadcasters.  An edge's source broadcasts itself when free;
     otherwise its first free surrogate stands in. *)
  let broadcaster = Array.make k (-1) in
  let owner = Array.make k (-1) in
  Array.iteri
    (fun c item ->
      match item with
      | Game.State.Node v ->
        broadcaster.(c) <- v;
        owner.(c) <- v
      | Game.State.Edge (v, _) ->
        owner.(c) <- v;
        if not (is_used v) then begin
          claim v (pack ~kind:kind_broadcast ~chan:c ~rank:0);
          broadcaster.(c) <- v
        end
        else begin
          let subs = surrogates v in
          let len = Array.length subs in
          let s = ref (-1) in
          let j = ref 0 in
          while !s < 0 && !j < len do
            if not (is_used subs.(!j)) then s := subs.(!j);
            incr j
          done;
          if !s < 0 then
            raise (Divergence (Printf.sprintf "no free surrogate for node %d" v));
          claim !s (pack ~kind:kind_broadcast ~chan:c ~rank:0);
          broadcaster.(c) <- !s
        end)
    items;
  (* Pass 3: watchers, in increasing id order from the uninvolved nodes.
     The first [witness_size] of each channel's watchers double as its
     witness set — shared prefix, no copy. *)
  let watchers = Array.make k [||] in
  let next_free = ref 0 in
  let take_free role =
    (* radio-lint: allow partial-array-unsafe — !next_free < n guarded on the same line *)
    while !next_free < n && Array.unsafe_get used !next_free = gen do
      incr next_free
    done;
    if !next_free >= n then raise (Divergence "not enough nodes for watchers");
    let v = !next_free in
    (* radio-lint: allow partial-array-unsafe — v < n established by the raise above *)
    Array.unsafe_set used v gen;
    (* radio-lint: allow partial-array-unsafe — same bounds as the stamp *)
    Array.unsafe_set roles v role;
    v
  in
  for c = 0 to k - 1 do
    let ws = Array.make watchers_per_channel 0 in
    for i = 0 to watchers_per_channel - 1 do
      ws.(i) <- take_free (pack ~kind:kind_watch ~chan:c ~rank:i)
    done;
    watchers.(c) <- ws
  done;
  { items; broadcaster; owner; receiver; watchers; witness_size;
    index = { src = scratch; built_gen = gen } }

type role =
  | Broadcast of { channel : int; owner : int }
  | Receive of { channel : int; edge : int * int }
  | Watch of { channel : int }
  | Off

let[@inline] index_live t =
  let ix = t.index in
  ix.src.gen = ix.built_gen

let[@inline] stamped t id =
  let ix = t.index in
  let stamps = ix.src.stamps in
  id >= 0 && id < Array.length stamps
  (* radio-lint: allow partial-array-unsafe — bounds guarded on the previous line *)
  && Array.unsafe_get stamps id = ix.built_gen

let role_of t id =
  if index_live t then
    if not (stamped t id) then Off
    else begin
      let d = t.index.src.role_data.(id) in
      let chan = packed_chan d in
      match packed_kind d with
      | 0 -> Broadcast { channel = chan; owner = t.owner.(chan) }
      | 1 ->
        (match t.items.(chan) with
         | Game.State.Edge e -> Receive { channel = chan; edge = e }
         (* receive roles are only recorded on Edge channels *)
         (* radio-lint: allow partial-assert-false *)
         | Game.State.Node _ -> assert false)
      | _ -> Watch { channel = chan }
    end
  else invalid_arg "Schedule.role_of: stale index (a later build reused the scratch)"

let witness_channel t id =
  if index_live t then
    if not (stamped t id) then None
    else begin
      let d = t.index.src.role_data.(id) in
      if packed_kind d = kind_watch && packed_rank d < t.witness_size then
        Some (packed_chan d)
      else None
    end
  else invalid_arg "Schedule.witness_channel: stale index (a later build reused the scratch)"

let oracle_entry t =
  (* Both lists in one backward loop — iterative, so proposals of any size
     (k >= 1e5) cannot overflow the stack. *)
  let k = Array.length t.items in
  let chans = ref [] in
  let kinds = ref [] in
  for c = k - 1 downto 0 do
    let kind =
      match t.items.(c) with
      | Game.State.Node v -> Oracle.Node_item v
      | Game.State.Edge e -> Oracle.Edge_item e
    in
    chans := c :: !chans;
    kinds := (c, kind) :: !kinds
  done;
  { Oracle.channels_in_use = !chans; kinds = !kinds }
