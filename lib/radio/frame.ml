type payload =
  | Plain of { src : int; dst : int; body : string }
  | Vector of { owner : int; entries : (int * string) list }
  | Feedback_true of int
  | Feedback_false
  | Feedback_set of (int * bool) list
  | Chain of { owner : int; index : int; body : string; recon_hash : string }
  | Sealed of string
  | Report of { reporter : int; leader : int; key_hash : string }
  | Noise

type t = payload

let pp fmt = function
  | Plain { src; dst; body } ->
    Format.fprintf fmt "Plain(%d->%d,%dB)" src dst (String.length body)
  | Vector { owner; entries } ->
    Format.fprintf fmt "Vector(owner=%d,%d entries)" owner (List.length entries)
  | Feedback_true r -> Format.fprintf fmt "True(%d)" r
  | Feedback_false -> Format.fprintf fmt "False"
  | Feedback_set flags -> Format.fprintf fmt "Set(%d flags)" (List.length flags)
  | Chain { owner; index; _ } -> Format.fprintf fmt "Chain(%d,#%d)" owner index
  | Sealed s -> Format.fprintf fmt "Sealed(%dB)" (String.length s)
  | Report { reporter; leader; _ } ->
    Format.fprintf fmt "Report(%d: leader %d)" reporter leader
  | Noise -> Format.fprintf fmt "Noise"

let equal (a : t) (b : t) = a = b

let id_size = 4

let payload_size = function
  | Plain { body; _ } -> (2 * id_size) + String.length body
  | Vector { entries; _ } ->
    id_size
    + List.fold_left (fun acc (_, body) -> acc + id_size + String.length body) 0 entries
  | Feedback_true _ -> 1 + id_size
  | Feedback_false -> 1
  | Feedback_set flags -> 1 + (List.length flags * (id_size + 1))
  | Chain { body; recon_hash; _ } ->
    (2 * id_size) + String.length body + String.length recon_hash
  | Sealed s -> String.length s
  | Report { key_hash; _ } -> (2 * id_size) + String.length key_hash
  | Noise -> 0
