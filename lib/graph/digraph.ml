type edge = int * int

(* Monomorphic edge order: lexicographic on (source, destination).  The
   polymorphic [compare] this replaces walked the tuple structure through
   the generic runtime path on every Set rebalance — wasted work, and a
   nondeterminism hazard pattern the [nondet-poly-compare] lint rule now
   bans in protocol-adjacent modules. *)
let edge_compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d

let check (v, w) =
  if v = w then invalid_arg "Digraph: self-loop"
  else if v < 0 || w < 0 then invalid_arg "Digraph: negative node id"

(* -- dense bitset representation -------------------------------------- *)

module Dense = struct
  type t = {
    n : int;  (* node universe: ids 0..n-1 *)
    out_rows : Bitset.t array;  (* out_rows.(v) = successors of v *)
    in_rows : Bitset.t array;  (* in_rows.(w) = predecessors of w *)
    m : int;  (* edge count *)
  }

  let universe t = t.n

  let edge_count t = t.m

  let mem_edge t (v, w) = v >= 0 && v < t.n && Bitset.mem t.out_rows.(v) w

  let remove_edge t ((v, w) as e) =
    if not (mem_edge t e) then t
    else begin
      let out_rows = Array.copy t.out_rows and in_rows = Array.copy t.in_rows in
      let ov = Bitset.copy out_rows.(v) and iw = Bitset.copy in_rows.(w) in
      Bitset.unset ov w;
      Bitset.unset iw v;
      out_rows.(v) <- ov;
      in_rows.(w) <- iw;
      { t with out_rows; in_rows; m = t.m - 1 }
    end

  (* Rows owned by the builder are mutated in place; sharing with the zero
     row marks "not yet owned". *)
  let of_edges ?n es =
    let n =
      match n with
      | Some n -> n
      | None -> List.fold_left (fun acc (v, w) -> max acc (max v w + 1)) 0 es
    in
    let zero = Bitset.create n in
    let out_rows = Array.make n zero and in_rows = Array.make n zero in
    let own rows v =
      if rows.(v) == zero then rows.(v) <- Bitset.create n;
      rows.(v)
    in
    let m = ref 0 in
    List.iter
      (fun ((v, w) as e) ->
        check e;
        if v >= n || w >= n then
          invalid_arg
            (Printf.sprintf "Digraph.Dense: edge (%d,%d) outside universe 0..%d" v w (n - 1));
        let ov = own out_rows v in
        if not (Bitset.mem ov w) then begin
          Bitset.set ov w;
          Bitset.set (own in_rows w) v;
          incr m
        end)
      es;
    { n; out_rows; in_rows; m = !m }

  let out_row t v = t.out_rows.(v)

  let in_row t v = t.in_rows.(v)

  let iter_edges f t =
    for v = 0 to t.n - 1 do
      Bitset.iter (fun w -> f (v, w)) t.out_rows.(v)
    done

  let edges t =
    let acc = ref [] in
    for v = t.n - 1 downto 0 do
      let row = t.out_rows.(v) in
      if not (Bitset.is_empty row) then
        (* fold visits ascending, so the per-row list comes out descending:
           reverse it before grafting onto the tail. *)
        acc := List.rev_append (Bitset.fold (fun w es -> (v, w) :: es) row []) !acc
    done;
    !acc

  let has_outgoing t v = v >= 0 && v < t.n && not (Bitset.is_empty t.out_rows.(v))

  let has_incoming t v = v >= 0 && v < t.n && not (Bitset.is_empty t.in_rows.(v))

  let vertices t =
    let acc = ref [] in
    for v = t.n - 1 downto 0 do
      if has_outgoing t v || has_incoming t v then acc := v :: !acc
    done;
    !acc

  let vertex_count t =
    let c = ref 0 in
    for v = 0 to t.n - 1 do
      if has_outgoing t v || has_incoming t v then incr c
    done;
    !c

  let sources t =
    let acc = ref [] in
    for v = t.n - 1 downto 0 do
      if not (Bitset.is_empty t.out_rows.(v)) then acc := v :: !acc
    done;
    !acc

  let equal a b =
    if a.m <> b.m then false
    else if a.n = b.n then
      let rec rows v =
        v >= a.n || (Bitset.equal a.out_rows.(v) b.out_rows.(v) && rows (v + 1))
      in
      rows 0
    else
      (* Different universe capacities can still carry the same edge set. *)
      edges a = edges b
end
