let disjoint_pairs ~n ~count =
  if 2 * count > n then invalid_arg "Workload.disjoint_pairs: need 2*count <= n";
  List.init count (fun i -> (i, i + count))

let complete ~n =
  let acc = ref [] in
  for v = n - 1 downto 0 do
    for w = n - 1 downto 0 do
      if v <> w then acc := (v, w) :: !acc
    done
  done;
  !acc

let complete_on nodes =
  List.concat_map
    (fun v -> List.filter_map (fun w -> if v <> w then Some (v, w) else None) nodes)
    nodes

let star ~n ~hub =
  List.filter_map (fun w -> if w <> hub then Some (hub, w) else None) (List.init n Fun.id)

let random_pairs rng ~n ~count =
  if count > n * (n - 1) then invalid_arg "Workload.random_pairs: too many pairs";
  let module S = Set.Make (struct
    type t = int * int

    let compare = Digraph.edge_compare
  end) in
  let rec fill acc =
    if S.cardinal acc = count then S.elements acc
    else
      let v = Prng.Rng.int rng n in
      let w = Prng.Rng.int rng n in
      if v = w then fill acc else fill (S.add (v, w) acc)
  in
  fill S.empty

let bidirectional pairs =
  let module S = Set.Make (struct
    type t = int * int

    let compare = Digraph.edge_compare
  end) in
  S.elements (List.fold_left (fun acc (v, w) -> S.add (v, w) (S.add (w, v) acc)) S.empty pairs)
