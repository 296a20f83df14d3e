(* One [Cache.Tally] field per counter, in the order of [t]'s fields. *)

type t = {
  sha256_compressions : int;
  chacha20_blocks : int;
  poly1305_blocks : int;
  seals : int;
  opens : int;
  tags : int;
}

let tally = Cache.Tally.create 6

let sha256_compression () = Cache.Tally.add tally 0 1
let chacha20_block () = Cache.Tally.add tally 1 1
let poly1305 k = Cache.Tally.add tally 2 k
let seal () = Cache.Tally.add tally 3 1
let open_ () = Cache.Tally.add tally 4 1
let tag () = Cache.Tally.add tally 5 1

let snapshot () =
  let a = Cache.Tally.totals tally in
  { sha256_compressions = a.(0); chacha20_blocks = a.(1); poly1305_blocks = a.(2);
    seals = a.(3); opens = a.(4); tags = a.(5) }

let diff a b =
  { sha256_compressions = a.sha256_compressions - b.sha256_compressions;
    chacha20_blocks = a.chacha20_blocks - b.chacha20_blocks;
    poly1305_blocks = a.poly1305_blocks - b.poly1305_blocks;
    seals = a.seals - b.seals;
    opens = a.opens - b.opens;
    tags = a.tags - b.tags }

let render c =
  Printf.sprintf "crypto: sha256=%d chacha20=%d poly1305=%d seal=%d open=%d tag=%d"
    c.sha256_compressions c.chacha20_blocks c.poly1305_blocks c.seals c.opens c.tags
