(* Outside-in layer trace.

   Spans come only from the benchmark's side of public calls: the
   workload's adversary is wrapped so that every [act ~round] call is
   timestamped into preallocated arrays, which yields one span per real
   round (resolve and resume of round r, then harvest of round r + 1).
   Each round span is classified from public facts by the workload's
   [classify]; the span from the call to the first [act] and the span from
   the last [act] to the return get their own names.  Sweeps get one span
   per experiment instead.

   GC time comes from the runtime's own event ring (Runtime_events, domain
   0 only) and is subtracted from whatever span it interrupted, so layer
   self times plus GC plus the uncovered gaps add up to the traced wall. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; start : int; stop : int; parent : int; run : int }

type t = {
  mutable spans : span list;  (* newest first; a span's id is its position *)
  mutable next_id : int;
  mutable run : int;
  mutable stamps : int array;
  mutable rounds : int array;
  mutable acts : int;
  mutable pending : (string * int * int) list;  (* experiment spans of the current op *)
  mutable gc : (int * int) list;  (* GC intervals, newest first *)
  mutable gc_depth : int;
  mutable gc_open : int;
  mutable lost_events : int;
  mutable events : (Runtime_events.cursor * Runtime_events.Callbacks.t) option;
}

let create () =
  { spans = []; next_id = 0; run = 0; stamps = Array.make 32768 0;
    rounds = Array.make 32768 0; acts = 0; pending = []; gc = []; gc_depth = 0; gc_open = 0;
    lost_events = 0; events = None }

let add t ~name ~start ~stop ~parent =
  let id = t.next_id in
  t.spans <- { name; start; stop; parent; run = t.run } :: t.spans;
  t.next_id <- id + 1;
  id

(* Nested runtime phases on domain 0 merge into one GC interval. *)
let callbacks t =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun dom at _ ->
      if dom = 0 then begin
        if t.gc_depth = 0 then t.gc_open <- ts at;
        t.gc_depth <- t.gc_depth + 1
      end)
    ~runtime_end:(fun dom at _ ->
      if dom = 0 && t.gc_depth > 0 then begin
        t.gc_depth <- t.gc_depth - 1;
        if t.gc_depth = 0 then t.gc <- (t.gc_open, ts at) :: t.gc
      end)
    ~lost_events:(fun _ n -> t.lost_events <- t.lost_events + n)
    ()

(* Starting the ring can fail (it is a file in the working directory);
   the trace then reports no GC share and the time stays in the spans.
   The ring is paused outside traced operations. *)
let start_gc t =
  match Runtime_events.start () with
  | () ->
    t.events <- Some (Runtime_events.create_cursor None, callbacks t);
    Runtime_events.pause ()
  | exception e -> Printf.eprintf "benchsuite: no GC attribution (%s)\n%!" (Printexc.to_string e)

let poll_gc t =
  match t.events with
  | None -> ()
  | Some (cursor, cbs) -> ignore (Runtime_events.read_poll cursor cbs None)

let gc_ring t f = if Option.is_some t.events then f ()

let note_act t round =
  if t.acts = Array.length t.stamps then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    t.stamps <- grow t.stamps;
    t.rounds <- grow t.rounds
  end;
  t.stamps.(t.acts) <- now_ns ();
  t.rounds.(t.acts) <- round;
  t.acts <- t.acts + 1;
  poll_gc t

(* Leaves [observes] unchanged.  The wrapper is not physically
   [Adversary.null], so the engine's empty-round fast-forward is off in
   traced runs; end-to-end numbers therefore come from untraced runs. *)
let wrap t (adv : Radio.Adversary.t) =
  { adv with
    Radio.Adversary.act =
      (fun ~round ->
        note_act t round;
        adv.Radio.Adversary.act ~round) }

let experiment t name f =
  let start = now_ns () in
  let x = f () in
  t.pending <- (name, start, now_ns ()) :: t.pending;
  poll_gc t;
  x

let probe t ~oracle =
  { Workload.adversary = wrap t; oracle; experiment = (fun name f -> experiment t name f) }

(* One traced operation: a root span, then its children.  [classify ~round
   ~next] names the span that starts at the [act] of [round] and ends at
   the [act] of [next]. *)
let op t ~first ~last ~classify f =
  t.acts <- 0;
  t.pending <- [];
  gc_ring t Runtime_events.resume;
  let start = now_ns () in
  let x = f () in
  let stop = now_ns () in
  poll_gc t;
  gc_ring t Runtime_events.pause;
  let root = add t ~name:"op" ~start ~stop ~parent:(-1) in
  List.iter
    (fun (name, start, stop) -> ignore (add t ~name ~start ~stop ~parent:root))
    (List.rev t.pending);
  if t.acts > 0 then begin
    ignore (add t ~name:first ~start ~stop:t.stamps.(0) ~parent:root);
    for k = 0 to t.acts - 2 do
      ignore
        (add t
           ~name:(classify ~round:t.rounds.(k) ~next:t.rounds.(k + 1))
           ~start:t.stamps.(k) ~stop:t.stamps.(k + 1) ~parent:root)
    done;
    ignore (add t ~name:last ~start:t.stamps.(t.acts - 1) ~stop ~parent:root)
  end;
  t.run <- t.run + 1;
  (x, float_of_int (stop - start) /. 1e9)

let spans t = Array.of_list (List.rev t.spans)

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type ledger = {
  wall_ns : int;  (** sum of the traced op spans *)
  self_ns : (string * int) list;  (** per layer, GC excluded, sorted by layer *)
  gc_ns : int;  (** GC inside child spans *)
  unattributed_ns : int;  (** op time no child span covers *)
}

(* Child spans never overlap (they are cut at consecutive timestamps) and
   neither do GC intervals, so one merge pass over both, in start order,
   finds every overlap. *)
let ledger t =
  let all = spans t in
  let children =
    List.sort
      (fun a b -> Int.compare a.start b.start)
      (List.filter (fun s -> s.parent >= 0) (Array.to_list all))
  in
  let gc = ref (List.rev t.gc) in
  let self = Hashtbl.create 8 in
  let gc_total = ref 0 and covered = ref 0 in
  List.iter
    (fun s ->
      (* Intervals ending before this span can overlap no later span. *)
      let rec drop = function (_, b) :: rest when b <= s.start -> drop rest | l -> l in
      gc := drop !gc;
      let rec overlap acc = function
        | (a, b) :: rest when a < s.stop ->
          overlap (acc + max 0 (min b s.stop - max a s.start)) rest
        | _ -> acc
      in
      let overlap = overlap 0 !gc in
      let d = s.stop - s.start in
      gc_total := !gc_total + overlap;
      covered := !covered + d;
      let l = layer s.name in
      Hashtbl.replace self l (Option.value (Hashtbl.find_opt self l) ~default:0 + d - overlap))
    children;
  let wall =
    Array.fold_left (fun acc s -> if s.parent < 0 then acc + (s.stop - s.start) else acc) 0 all
  in
  { wall_ns = wall; self_ns = Det.bindings self; gc_ns = !gc_total;
    unattributed_ns = wall - !covered }

let durations t name =
  Array.fold_right
    (fun s acc -> if String.equal s.name name then float_of_int (s.stop - s.start) :: acc else acc)
    (spans t) []

let to_json t ~workload ~seed =
  let open Experiments.Json in
  let all = spans t in
  let base = Array.fold_left (fun m s -> min m s.start) max_int all in
  let span name ~start ~stop ~parent ~run =
    Obj
      [ ("name", String name); ("start_ns", Int (start - base)); ("end_ns", Int (stop - base));
        ("parent", Int parent); ("run", Int run) ]
  in
  let own =
    Array.to_list
      (Array.map (fun s -> span s.name ~start:s.start ~stop:s.stop ~parent:s.parent ~run:s.run) all)
  in
  (* Each GC interval hangs off the op span it fell in. *)
  let roots = List.filter (fun (_, s) -> s.parent < 0) (List.mapi (fun i s -> (i, s)) (Array.to_list all)) in
  let gc =
    List.filter_map
      (fun (a, b) ->
        List.find_opt (fun (_, s) -> s.start <= a && a < s.stop) roots
        |> Option.map (fun (i, (s : span)) -> span "gc" ~start:a ~stop:b ~parent:i ~run:s.run))
      (List.rev t.gc)
  in
  Obj
    [ ("schema", String "benchsuite-trace/v1"); ("workload", String workload); ("seed", Int seed);
      ("lost_gc_events", Int t.lost_events); ("spans", List (own @ gc)) ]

let write t ~path ~workload ~seed =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Experiments.Json.to_string (to_json t ~workload ~seed));
      output_char oc '\n')
