let leaders ~t = List.init (t + 1) Fun.id

let pairs ~n ~t =
  if n < t + 2 then invalid_arg "Spanner.pairs: need n >= t + 2";
  let is_leader v = v <= t in
  let acc = ref [] in
  for v = n - 1 downto 0 do
    for w = n - 1 downto 0 do
      if v <> w && (is_leader v || is_leader w) then acc := (v, w) :: !acc
    done
  done;
  !acc

(* Connectivity of the undirected survivor graph by bitset BFS: the
   frontier's out|in rows are or-ed into the visited word set, so each BFS
   round costs O(frontier * words) instead of list appends per edge. *)
let connected_after g ~alive =
  let n = Digraph.Dense.universe g in
  let nwords = Bitset.words alive in
  match Bitset.fold (fun v acc -> match acc with None -> Some v | some -> some) alive None with
  | None -> true
  | Some start ->
    let visited = Bitset.create n in
    Bitset.set visited start;
    let frontier = ref [ start ] in
    while !frontier <> [] do
      let next = ref [] in
      List.iter
        (fun v ->
          let ov = Digraph.Dense.out_row g v and iv = Digraph.Dense.in_row g v in
          for w = 0 to nwords - 1 do
            (* Undirected reachable neighbors, still alive, not yet seen. *)
            let fresh =
              (Bitset.word ov w lor Bitset.word iv w)
              land Bitset.word alive w
              land lnot (Bitset.word visited w)
            in
            if fresh <> 0 then begin
              Bitset.set_word visited w (Bitset.word visited w lor fresh);
              let x = ref fresh in
              let base = w * Bitset.bits_per_word in
              while !x <> 0 do
                let b = !x land - !x in
                next := (base + Bitset.bit_index b) :: !next;
                x := !x lxor b
              done
            end
          done)
        !frontier;
      frontier := !next
    done;
    (* Connected iff every alive node was visited. *)
    let rec all w =
      w >= nwords
      || (Bitset.word alive w land lnot (Bitset.word visited w) = 0 && all (w + 1))
    in
    all 0

let survives_removal ~n ~t ~removed =
  let g = Digraph.Dense.of_edges ~n (pairs ~n ~t) in
  let alive = Bitset.create n in
  for v = 0 to n - 1 do
    Bitset.set alive v
  done;
  List.iter (fun v -> if v >= 0 && v < n then Bitset.unset alive v) removed;
  connected_after g ~alive
