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
