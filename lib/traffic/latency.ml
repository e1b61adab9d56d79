(* Per-hostname RTT from a keyed hash of the name: stable across runs,
   uncorrelated with rank or operator, and recomputable row-side without
   the world. The [16, 240] ms range spans same-continent to
   intercontinental paths. *)

let rtt_key = Crypto.Hmac.key "traffic:rtt"

let rtt_ms hostname =
  let h = Crypto.Hmac.mac rtt_key hostname in
  let v =
    (Char.code h.[0] lsl 16) lor (Char.code h.[1] lsl 8) lor Char.code h.[2]
  in
  16 + (v mod 225)

let full_ms hostname = 2 * rtt_ms hostname
let abbreviated_ms hostname = rtt_ms hostname
let saved_ms hostname = full_ms hostname - abbreviated_ms hostname
