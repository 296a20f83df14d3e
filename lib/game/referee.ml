type t = {
  name : string;
  choose : State.t -> State.item list -> State.item list;
}

let take k items = List.filteri (fun i _ -> i < k) items

let generous = { name = "generous"; choose = (fun _ proposal -> proposal) }

let minimal_first =
  { name = "minimal-first";
    choose =
      (fun _ proposal ->
        match List.sort State.item_compare proposal with
        | [] -> invalid_arg "Referee: empty proposal"
        | x :: _ -> [ x ]) }

let random rng ~min_return =
  { name = Printf.sprintf "random-%d" min_return;
    choose =
      (fun _ proposal ->
        let arr = Array.of_list proposal in
        Prng.Rng.shuffle rng arr;
        take (max 1 min_return) (Array.to_list arr)) }

let spiteful ~min_return =
  { name = Printf.sprintf "spiteful-%d" min_return;
    choose =
      (fun _ proposal ->
        let nodes, edges =
          List.partition (function State.Node _ -> true | State.Edge _ -> false) proposal
        in
        take (max 1 min_return) (nodes @ edges)) }
