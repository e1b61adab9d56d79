(* HMAC-SHA256 (RFC 2104), verified against the RFC 4231 vectors in the
   test suite.

   A keyed context is the two midstates after the ipad and opad blocks,
   64 bytes, inner then outer. Building it costs the two pad compressions
   once per key; every MAC then resumes from it. A message of at most 55
   bytes fits its padding in one block, so its MAC is one inner and one
   outer compression straight from the midstates ([mac_into]), staged in
   per-domain scratch with no hash state built. A [key] is a context in
   an immutable string, so it can be shared freely, across domains
   included; [key_into] and [mac_into] work on a context kept in the
   caller's buffer instead. *)

type key = string

let context_size = 2 * Sha256.digest_size

(* The pad block [key_into] builds. Nothing in it yields, so one block
   per domain serves every call. *)
let pad_block = Domain.DLS.new_key (fun () -> Bytes.create Sha256.block_size)

let xor_block pad m =
  for i = 0 to (Sha256.block_size / 8) - 1 do
    Bytes.set_int64_ne pad (8 * i) (Int64.logxor (Bytes.get_int64_ne pad (8 * i)) m)
  done

let[@inline never] key_into src ~pos ~len dst ~at =
  if len < 0 || len > Sha256.block_size then invalid_arg "Hmac.key_into: key longer than a block";
  let pad = Domain.DLS.get pad_block in
  Bytes.blit src pos pad 0 len;
  Bytes.fill pad len (Sha256.block_size - len) '\x00';
  xor_block pad 0x3636363636363636L;
  Sha256.midstate_of_block pad dst ~pos:at;
  (* ipad bytes into opad bytes. *)
  xor_block pad 0x6a6a6a6a6a6a6a6aL;
  Sha256.midstate_of_block pad dst ~pos:(at + Sha256.digest_size)

let[@inline never] key k =
  let k = if String.length k > Sha256.block_size then Sha256.digest k else k in
  let ctx = Bytes.create context_size in
  key_into (Bytes.unsafe_of_string k) ~pos:0 ~len:(String.length k) ctx ~at:0;
  Bytes.unsafe_to_string ctx

let context buf ~pos = Bytes.sub_string buf pos context_size

(* The inner digest goes straight into [dst], and the outer compression
   reads it back from there as its message. *)
let[@inline never] mac_into ctx ~ctx:cpos msg ~pos ~len dst ~at =
  Sha256.finish_short ctx cpos msg ~pos ~len dst ~at;
  Sha256.finish_short ctx (cpos + Sha256.digest_size) dst ~pos:at ~len:Sha256.digest_size dst ~at

let short ctx msg =
  let out = Bytes.create Sha256.digest_size in
  mac_into (Bytes.unsafe_of_string ctx) ~ctx:0 (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)
    out ~at:0;
  Bytes.unsafe_to_string out

(* HMAC over the concatenation of [parts] without materializing it; the
   record layer MACs (sequence || header) and ciphertext as two parts
   instead of copying the whole ciphertext into a fresh string. *)
let streamed ctx parts =
  let inner = Sha256.of_midstate ctx ~pos:0 in
  List.iter (Sha256.update inner) parts;
  let outer = Sha256.of_midstate ctx ~pos:Sha256.digest_size in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let[@inline never] mac ctx msg =
  if String.length msg <= Sha256.max_short then short ctx msg else streamed ctx [ msg ]

let[@inline never] mac_parts ctx parts =
  if List.fold_left (fun n p -> n + String.length p) 0 parts > Sha256.max_short then streamed ctx parts
  else short ctx (match parts with [ msg ] -> msg | _ -> String.concat "" parts)

let sha256 ~key:k msg = mac (key k) msg

(* Constant-time comparison: MAC checks must not leak a prefix-length
   timing signal. *)
let equal_ct a b =
  String.length a = String.length b
  &&
  let acc = ref 0 in
  String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
  !acc = 0

let verify ~key ~msg ~tag = equal_ct (sha256 ~key msg) tag
