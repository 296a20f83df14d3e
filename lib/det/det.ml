(* Deterministic views of [Hashtbl].

   [Hashtbl]'s own iteration order depends on the hash function and on
   insertion history, so any fold/iter over a table is a nondeterminism
   hazard in simulated paths — exactly what `radio_lint`'s
   [nondet-hashtbl-order] rule flags.  This module is the blessed way to
   consume a table: every traversal goes through a sort on the keys
   (polymorphic [compare]), so results depend only on the table's
   contents, never on its layout.

   The raw folds below are the single justified use of unordered
   iteration in the tree; each carries a `radio-lint: allow` escape. *)

let bindings t =
  List.sort
    (fun (k1, _) (k2, _) -> compare k1 k2)
    (* radio-lint: allow nondet-hashtbl-order — order erased by the sort *)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let keys t =
  (* radio-lint: allow nondet-hashtbl-order — order erased by the sort *)
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)

let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)
