type item_kind = Node_item of int | Edge_item of (int * int)

type entry = {
  channels_in_use : int list;
  kinds : (int * item_kind) list;
}

type t = (int, entry) Hashtbl.t

let create () = Hashtbl.create 64

let post t ~round entry = Hashtbl.replace t round entry

let get t ~round = Hashtbl.find_opt t round
