(* HMAC-SHA256 (RFC 2104), verified against the RFC 4231 vectors in the
   test suite.

   A keyed context is the two midstates after the ipad and opad blocks,
   64 bytes, inner then outer. Building it costs the two pad compressions
   once per key; every MAC then resumes from it. A message of at most
   119 bytes fits its padding in two blocks, so its MAC is one or two
   inner compressions and one outer straight from the midstates, staged
   in per-domain scratch with no hash state built. A [key] is a context
   in an immutable string, so it can be shared freely, across domains
   included. *)

type key = string

(* The pad block [key] builds. Nothing in it yields, so one block per
   domain serves every call. *)
let pad_block = Domain.DLS.new_key (fun () -> Bytes.create Sha256.block_size)

let xor_block pad m =
  for i = 0 to (Sha256.block_size / 8) - 1 do
    Bytes.set_int64_ne pad (8 * i) (Int64.logxor (Bytes.get_int64_ne pad (8 * i)) m)
  done

let[@inline never] key k =
  let k = if String.length k > Sha256.block_size then Sha256.digest k else k in
  let pad = Domain.DLS.get pad_block in
  let ctx = Bytes.create (2 * Sha256.digest_size) in
  Bytes.blit_string k 0 pad 0 (String.length k);
  Bytes.fill pad (String.length k) (Sha256.block_size - String.length k) '\x00';
  xor_block pad 0x3636363636363636L;
  Sha256.midstate_of_block pad ctx ~pos:0;
  (* ipad bytes into opad bytes. *)
  xor_block pad 0x6a6a6a6a6a6a6a6aL;
  Sha256.midstate_of_block pad ctx ~pos:Sha256.digest_size;
  Bytes.unsafe_to_string ctx

(* A message of at most [Sha256.max_tail] bytes: its inner hash is the
   last one or two blocks from the ipad midstate, and the outer hash
   reads the inner digest back from the tag buffer. *)
let tail ctx msg ~len =
  let ctx = Bytes.unsafe_of_string ctx in
  let out = Bytes.create Sha256.digest_size in
  Sha256.finish_short ctx 0 msg ~pos:0 ~len out ~at:0;
  Sha256.finish_short ctx Sha256.digest_size out ~pos:0 ~len:Sha256.digest_size out ~at:0;
  Bytes.unsafe_to_string out

(* Where [mac_parts] gathers a tail-sized message. *)
let gather = Domain.DLS.new_key (fun () -> Bytes.create Sha256.max_tail)

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
  let len = String.length msg in
  if len <= Sha256.max_tail then tail ctx (Bytes.unsafe_of_string msg) ~len else streamed ctx [ msg ]

let[@inline never] mac_parts ctx parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  if len > Sha256.max_tail then streamed ctx parts
  else begin
    let buf = Domain.DLS.get gather in
    ignore
      (List.fold_left
         (fun pos p ->
           Bytes.blit_string p 0 buf pos (String.length p);
           pos + String.length p)
         0 parts);
    tail ctx buf ~len
  end

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
