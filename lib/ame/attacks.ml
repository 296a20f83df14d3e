type preference = Prefer_edges | Prefer_nodes | Any

let take k items = List.filteri (fun i _ -> i < k) items

let jam chan = { Radio.Adversary.chan; spoof = None }

let default_channels budget = List.init budget jam

let schedule_jammer board ~channels ~budget ~prefer =
  ignore channels;
  { Radio.Adversary.name = "schedule-jammer";
    act =
      (fun ~round ->
        match Oracle.get board ~round with
        | None -> default_channels budget
        | Some entry ->
          let score (_, kind) =
            match (prefer, kind) with
            | Prefer_edges, Oracle.Edge_item _ -> 0
            | Prefer_edges, Oracle.Node_item _ -> 1
            | Prefer_nodes, Oracle.Node_item _ -> 0
            | Prefer_nodes, Oracle.Edge_item _ -> 1
            | Any, _ -> 0
          in
          let ranked =
            List.sort
              (fun a b ->
                let c = Int.compare (score a) (score b) in
                if c <> 0 then c else Int.compare (fst a) (fst b))
              entry.Oracle.kinds
          in
          take budget (List.map (fun (chan, _) -> jam chan) ranked));
    observe = None }

let triangle_jammer board ~channels ~budget ~triple_of =
  ignore channels;
  { Radio.Adversary.name = "triangle-jammer";
    act =
      (fun ~round ->
        match Oracle.get board ~round with
        | None -> default_channels budget
        | Some entry ->
          let intra (_, kind) =
            match kind with
            | Oracle.Edge_item (v, w) ->
              (match (triple_of v, triple_of w) with
               | Some a, Some b -> a = b
               | _ -> false)
            | Oracle.Node_item _ -> false
          in
          let targets = List.filter intra entry.Oracle.kinds in
          take budget (List.map (fun (chan, _) -> jam chan) targets));
    observe = None }
