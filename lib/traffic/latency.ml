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

(* A full handshake costs two RTTs and an abbreviated one one, so
   resumption saves one. *)
let saved_ms = rtt_ms
