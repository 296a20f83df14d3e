type t = {
  beta_feedback : float;
  watchers_factor : int;
}

let default = { beta_feedback = 3.0; watchers_factor = 3 }

let feedback_reps p ~channels ~budget ~n =
  let c = float_of_int channels and t = float_of_int budget in
  Radio.Config.reps ~scale:(p.beta_feedback *. (c /. (c -. t))) ~n

let tree_reps p ~n = Radio.Config.reps ~scale:p.beta_feedback ~n

let watchers_per_channel p ~budget ~channels =
  max channels (p.watchers_factor * (budget + 1))

let nodes_required p ~channels_used ~budget ~channels =
  (channels_used * watchers_per_channel p ~budget ~channels) + (2 * (budget + 1)) + 1
