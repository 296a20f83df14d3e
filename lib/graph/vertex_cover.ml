(* Exact vertex cover on the undirected view of a digraph.

   The solver works on a mutable bitset scratch graph (one adjacency row
   per node, a degree array, and an edge counter) built from a
   [Digraph.Dense] value.  [bounded] is the classic FPT branch-and-bound:

   - kernelization loop: any vertex of degree > k must join the cover;
     the neighbor of any degree-1 vertex may join an optimal cover
     (degree-1 folding); both repeat until the kernel has
     1 <= deg(v) <= k everywhere;
   - infeasibility bounds: m > k * max_degree (each chosen vertex covers
     at most max_degree edges) and a greedy maximal matching (any cover
     needs one endpoint per matched edge);
   - branching: on a maximum-degree vertex v (smallest id among ties),
     either v is in the cover, or all of N(v) is.

   Branch state is copied per branch node (rows + degrees), so there is
   no undo bookkeeping; at the n <= a-few-hundred scales the experiments
   decide, the copies are two small arrays.  Every query solves afresh:
   the solver keeps no state between calls. *)

type scratch = {
  n : int;
  adj : Bitset.t array;  (* undirected adjacency rows, mutated in place *)
  deg : int array;
  mutable m : int;  (* undirected edge count *)
}

let scratch_of_dense g =
  let n = Digraph.Dense.universe g in
  let adj = Array.init n (fun v -> Bitset.copy (Digraph.Dense.out_row g v)) in
  let deg = Array.make n 0 in
  let m = ref 0 in
  for v = 0 to n - 1 do
    let row = adj.(v) and irow = Digraph.Dense.in_row g v in
    for w = 0 to Bitset.words row - 1 do
      Bitset.set_word row w (Bitset.word row w lor Bitset.word irow w)
    done;
    deg.(v) <- Bitset.count row;
    m := !m + deg.(v)
  done;
  { n; adj; deg; m = !m / 2 }

let copy_scratch s =
  { n = s.n; adj = Array.map Bitset.copy s.adj; deg = Array.copy s.deg; m = s.m }

(* Remove [v] and its incident edges. *)
let remove_vertex s v =
  let row = s.adj.(v) in
  Bitset.iter
    (fun w ->
      Bitset.unset s.adj.(w) v;
      s.deg.(w) <- s.deg.(w) - 1)
    row;
  s.m <- s.m - s.deg.(v);
  s.deg.(v) <- 0;
  s.adj.(v) <- Bitset.create s.n

(* First vertex of degree 1 and smallest max-degree vertex, in one scan. *)
let scan_degrees s =
  let deg1 = ref (-1) and vmax = ref (-1) and dmax = ref 0 in
  for v = 0 to s.n - 1 do
    let d = s.deg.(v) in
    if d = 1 && !deg1 < 0 then deg1 := v;
    if d > !dmax then begin
      dmax := d;
      vmax := v
    end
  done;
  (!deg1, !vmax, !dmax)

(* Size of a greedy maximal matching: a lower bound on any vertex cover.
   Non-destructive (tracks matched vertices in a side bitset). *)
let matching_lower_bound s =
  let matched = Bitset.create s.n in
  let size = ref 0 in
  for v = 0 to s.n - 1 do
    if s.deg.(v) > 0 && not (Bitset.mem matched v) then begin
      (* First unmatched neighbor of v, by word. *)
      let row = s.adj.(v) in
      let found = ref (-1) and w = ref 0 in
      let nwords = Bitset.words row in
      while !found < 0 && !w < nwords do
        let cand = Bitset.word row !w land lnot (Bitset.word matched !w) in
        if cand <> 0 then
          found := (!w * Bitset.bits_per_word) + Bitset.bit_index (cand land -cand);
        incr w
      done;
      if !found >= 0 then begin
        Bitset.set matched v;
        Bitset.set matched !found;
        incr size
      end
    end
  done;
  !size

(* A cover of size <= k extending [acc], or None.  Owns (and destroys)
   [s]. *)
let rec bounded s k acc =
  (* In-place kernelization: high-degree forcing and degree-1 folding. *)
  let k = ref k and acc = ref acc and infeasible = ref false and kernelized = ref false in
  while (not !kernelized) && not !infeasible do
    if s.m = 0 then kernelized := true
    else if !k <= 0 then infeasible := true
    else begin
      let deg1, vmax, dmax = scan_degrees s in
      if dmax > !k then begin
        (* Any cover omitting vmax needs its > k neighbors: take it. *)
        remove_vertex s vmax;
        acc := vmax :: !acc;
        decr k
      end
      else if deg1 >= 0 then begin
        (* Degree-1 folding: some optimal cover takes the neighbor. *)
        let u =
          let row = s.adj.(deg1) in
          let rec first w =
            let x = Bitset.word row w in
            if x <> 0 then (w * Bitset.bits_per_word) + Bitset.bit_index (x land -x)
            else first (w + 1)
          in
          first 0
        in
        remove_vertex s u;
        acc := u :: !acc;
        decr k
      end
      else kernelized := true
    end
  done;
  if !infeasible then None
  else if s.m = 0 then Some !acc
  else begin
    let _, vmax, dmax = scan_degrees s in
    (* Each cover vertex kills at most dmax edges. *)
    if s.m > !k * dmax then None
    else if matching_lower_bound s > !k then None
    else begin
      (* Branch 1: vmax in the cover. *)
      let s1 = copy_scratch s in
      remove_vertex s1 vmax;
      match bounded s1 (!k - 1) (vmax :: !acc) with
      | Some cover -> Some cover
      | None ->
        (* Branch 2: all of N(vmax) in the cover (dmax <= k after the
           kernel loop, so the budget cannot go negative). *)
        let neighbors = Bitset.to_list s.adj.(vmax) in
        List.iter (fun w -> remove_vertex s w) neighbors;
        bounded s (!k - List.length neighbors) (neighbors @ !acc)
    end
  end

let max_degree s =
  let d = ref 0 in
  for v = 0 to s.n - 1 do
    if s.deg.(v) > !d then d := s.deg.(v)
  done;
  !d

let at_most_scratch s k =
  if s.m = 0 then true
  else if k <= 0 then false
  else if s.m > k * max_degree s then
    (* Trivial infeasibility: k vertices cover at most k * max_degree
       edges.  Decides dense over-budget queries without any search. *)
    false
  else bounded s k [] <> None

let minimum_scratch s =
  if s.m = 0 then []
  else begin
    let lb = matching_lower_bound s in
    let rec try_size k =
      match bounded (copy_scratch s) k [] with
      | Some cover -> List.sort_uniq Int.compare cover
      | None -> try_size (k + 1)
    in
    try_size lb
  end

let at_most_dense g k = at_most_scratch (scratch_of_dense g) k

let minimum_dense g = minimum_scratch (scratch_of_dense g)

let minimum_size_dense g = List.length (minimum_dense g)
