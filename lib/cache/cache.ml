(* Deterministic, pool-safe memoization.

   The store is domain-local ([Domain.DLS]): every domain — the main one
   and each [Parallel.Pool] worker — owns a private table, so lookups and
   inserts need no lock, impose no cross-domain ordering, and cannot leak
   one worker's progress into another's.  Because a memo may only cache a
   *pure* function of its key, a hit returns exactly what a fresh solve
   would, so simulated output is byte-identical whether the cache is hot,
   cold, shared, or disabled, as the pinned experiment hashes check.

   The only cross-domain state is monotonically-increasing [Atomic]
   hit/miss counters (observability only; never branched on by simulated
   code) and the global enable flag, switched off by [with_disabled]
   around deterministic sections. *)

type stats = { hits : int; misses : int }

type 'v t = {
  name : string;
  capacity : int;
  store : (string, 'v) Hashtbl.t Domain.DLS.key;
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
}

let enabled_flag = Atomic.make true

let with_disabled f =
  let prev = Atomic.get enabled_flag in
  Atomic.set enabled_flag false;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag prev) f

let create ?(capacity = 1 lsl 16) name =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  { name;
    capacity;
    store = Domain.DLS.new_key (fun () -> Hashtbl.create 256);
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0 }

let name t = t.name

let clear t = Hashtbl.reset (Domain.DLS.get t.store)

let find_or_compute t ~key f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let tbl = Domain.DLS.get t.store in
    match Hashtbl.find_opt tbl key with
    | Some v ->
      Atomic.incr t.hit_count;
      v
    | None ->
      let v = f () in
      (* Overflow policy: drop the whole (domain-local) table.  Eviction
         order never influences results — only which future queries
         re-solve — so the cheapest deterministic policy wins. *)
      if Hashtbl.length tbl >= t.capacity then Hashtbl.reset tbl;
      Hashtbl.add tbl key v;
      Atomic.incr t.miss_count;
      v
  end

let stats t = { hits = Atomic.get t.hit_count; misses = Atomic.get t.miss_count }

(* -- canonical digest keys -------------------------------------------- *)

module Key = struct
  (* Two independent 63-bit mixing lanes (splitmix-style xorshift-multiply)
     over the appended ints give a ~126-bit digest: collisions between
     distinct canonical forms are negligible at any realistic query count.
     All arithmetic is native-int and allocation-free until [finish]. *)

  type builder = {
    mutable h1 : int;
    mutable h2 : int;
    mutable len : int;
  }

  let mix h x =
    let h = h lxor x in
    let h = h * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 29) in
    let h = h * 0x1B03738712FAD5C9 in
    h lxor (h lsr 32)

  let create () = { h1 = 0x517CC1B727220A5; h2 = 0x2C62272E07BB0142; len = 0 }

  let add_int b x =
    b.h1 <- mix b.h1 x;
    b.h2 <- mix b.h2 (x lxor 0x27D4EB2F165667C5);
    b.len <- b.len + 1

  let finish b =
    let h1 = mix b.h1 b.len and h2 = mix b.h2 (b.len lxor 0x165667B19E3779F9) in
    let bytes = Bytes.create 16 in
    for i = 0 to 7 do
      Bytes.unsafe_set bytes i (Char.unsafe_chr ((h1 lsr (8 * i)) land 0xFF));
      Bytes.unsafe_set bytes (8 + i) (Char.unsafe_chr ((h2 lsr (8 * i)) land 0xFF))
    done;
    Bytes.unsafe_to_string bytes
end

(* -- per-domain work counters ---------------------------------------- *)

module Tally = struct
  (* [live] holds the blocks of running domains; [retired] the sums of
     those that exited.  Both change only through compare-and-set or
     fetch-and-add, once per domain lifetime; the hot path writes the
     calling domain's own block. *)
  type t = {
    live : int array list Atomic.t;
    retired : int Atomic.t array;
    block : int array Domain.DLS.key;
  }

  let rec update cell f =
    let l = Atomic.get cell in
    if not (Atomic.compare_and_set cell l (f l)) then update cell f

  let create fields =
    let live = Atomic.make [] and retired = Array.init fields (fun _ -> Atomic.make 0) in
    let block =
      Domain.DLS.new_key (fun () ->
          let b = Array.make fields 0 in
          update live (fun l -> b :: l);
          Domain.at_exit (fun () ->
              Array.iteri (fun i v -> ignore (Atomic.fetch_and_add retired.(i) v : int)) b;
              update live (List.filter (fun x -> x != b)));
          b)
    in
    { live; retired; block }

  let[@inline] add t i k =
    let b = Domain.DLS.get t.block in
    Array.unsafe_set b i (Array.unsafe_get b i + k)

  let totals t =
    let acc = Array.map Atomic.get t.retired in
    List.iter (Array.iteri (fun i v -> acc.(i) <- acc.(i) + v)) (Atomic.get t.live);
    acc
end
