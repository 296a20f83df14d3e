(* -- structured results ------------------------------------------------ *)

type block =
  | Text of string
  | Blank
  | Table of { header : string list; rows : string list list }

type result = {
  blocks : block list;
  total_rounds : int;
}

let result ?(total_rounds = 0) blocks = { blocks; total_rounds }

let text s = Text s

let textf f = Printf.ksprintf (fun s -> Text s) f

let table ~header rows = Table { header; rows }

let fmt_table fmt ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Format.fprintf fmt "%-*s  " (List.nth widths c) cell)
      row;
    Format.fprintf fmt "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let render_block fmt = function
  | Text s -> Format.fprintf fmt "%s@." s
  | Blank -> Format.fprintf fmt "@."
  | Table { header; rows } -> fmt_table fmt ~header rows

let render fmt r = List.iter (render_block fmt) r.blocks

let render_to_string r =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  render fmt r;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* -- replicate fan-out ------------------------------------------------- *)

let sweep ~jobs f xs = Parallel.map_ordered ~jobs f xs

let replicates ~jobs ~trials f = sweep ~jobs f (List.init trials (fun i -> i + 1))

let fame_nodes_for ~t ~channels_used ~channels =
  let required =
    Ame.Params.nodes_required Ame.Params.default ~channels_used ~budget:t ~channels
  in
  required + (2 * channels_used) + 4

let schedule_jam ~channels ~budget board =
  Ame.Attacks.schedule_jammer board ~channels ~budget ~prefer:Ame.Attacks.Prefer_edges

let random_jam ~seed ~channels ~budget =
  Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels ~budget

let default_messages (v, w) = Printf.sprintf "m-%d-%d" v w

type fame_point = {
  rounds : int;
  moves : int;
  delivered : int;
  failed : int;
  vc : int option;
  diverged : bool;
}

let run_fame ?channels_used ?play ?feedback_mode ?adversary ~seed ~n ~channels ~t ~pairs () =
  let cfg =
    Radio.Config.make ~seed ~n ~channels ~t ~max_rounds:Radio.Config.default_max_rounds ()
  in
  let adversary =
    Option.value adversary ~default:(schedule_jam ~channels ~budget:t)
  in
  let o =
    Ame.Fame.run ?channels_used ?play ?feedback_mode ~cfg ~pairs
      ~messages:default_messages ~adversary ()
  in
  { rounds = o.Ame.Fame.engine.Radio.Engine.rounds_used;
    moves = o.Ame.Fame.moves;
    delivered = List.length o.Ame.Fame.delivered;
    failed = List.length o.Ame.Fame.failed;
    vc = o.Ame.Fame.disruption_vc;
    diverged = o.Ame.Fame.diverged }
