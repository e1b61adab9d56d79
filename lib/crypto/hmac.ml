(* HMAC-SHA256 (RFC 2104), verified against the RFC 4231 vectors in the
   test suite.

   A keyed context is the two midstates after the ipad and opad blocks,
   packed into one 64-byte immutable string (inner then outer). Building
   it costs the two pad compressions once per key; every MAC then resumes
   from it, so a message shorter than 56 bytes costs 2 compressions
   instead of 4. Being an immutable string, a context can be shared
   freely, across domains included. *)

type key = string

let key k =
  let k = if String.length k > Sha256.block_size then Sha256.digest k else k in
  let pad = Bytes.make Sha256.block_size '\x36' in
  for i = 0 to String.length k - 1 do
    Bytes.set pad i (Char.chr (Char.code k.[i] lxor 0x36))
  done;
  let ctx = Bytes.create (2 * Sha256.digest_size) in
  Sha256.midstate_of_block pad ctx ~pos:0;
  (* Flip ipad bytes into opad bytes in place. *)
  for i = 0 to Sha256.block_size - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor (0x36 lxor 0x5c)))
  done;
  Sha256.midstate_of_block pad ctx ~pos:Sha256.digest_size;
  Bytes.unsafe_to_string ctx

(* HMAC over the concatenation of [parts] without materializing it; the
   record layer MACs (sequence || header) and ciphertext as two parts
   instead of copying the whole ciphertext into a fresh string. *)
let mac_parts ctx parts =
  let inner = Sha256.of_midstate ctx ~pos:0 in
  List.iter (Sha256.update inner) parts;
  let outer = Sha256.of_midstate ctx ~pos:Sha256.digest_size in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ctx msg = mac_parts ctx [ msg ]
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
