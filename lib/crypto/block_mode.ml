(* Block-cipher modes of operation over {!Aes}: CBC with PKCS#7 padding
   (the RFC 5077 recommended ticket construction) and CTR (used by the
   record layer's toy AEAD). *)

let bs = Aes.block_size

(* [dst] at [pos] xor= the 16 bytes of [src] at [src_pos]. *)
let xor_into dst pos src src_pos =
  Bytes.set_int64_ne dst pos
    (Int64.logxor (Bytes.get_int64_ne dst pos) (Bytes.get_int64_ne src src_pos));
  Bytes.set_int64_ne dst (pos + 8)
    (Int64.logxor (Bytes.get_int64_ne dst (pos + 8)) (Bytes.get_int64_ne src (src_pos + 8)))

(* --- CBC with PKCS#7 -------------------------------------------------------
   Each direction works in one buffer: encryption pads the plaintext into
   it and chains block by block in place; decryption copies the
   ciphertext, decrypts from the last block back (so each block's
   predecessor is still ciphertext when it is xored in), and cuts the
   padding off at the end. *)

let cbc_encrypt key ~iv plaintext =
  if String.length iv <> bs then invalid_arg "Block_mode.cbc_encrypt: bad IV";
  let n = String.length plaintext in
  let pad = bs - (n mod bs) in
  let buf = Bytes.create (n + pad) in
  Bytes.blit_string plaintext 0 buf 0 n;
  Bytes.fill buf n pad (Char.chr pad);
  xor_into buf 0 (Bytes.unsafe_of_string iv) 0;
  Aes.encrypt_in_place key buf 0;
  for i = 1 to ((n + pad) / bs) - 1 do
    xor_into buf (i * bs) buf ((i - 1) * bs);
    Aes.encrypt_in_place key buf (i * bs)
  done;
  Bytes.unsafe_to_string buf

(* PKCS#7: the last byte says how many bytes of padding there are, and
   each of them holds that count. *)
let pkcs7_padding buf n =
  let pad = Char.code (Bytes.get buf (n - 1)) in
  if pad = 0 || pad > bs then Error "pkcs7: bad padding byte"
  else
    let ok = ref true in
    for i = n - pad to n - 1 do
      if Char.code (Bytes.get buf i) <> pad then ok := false
    done;
    if !ok then Ok pad else Error "pkcs7: inconsistent padding"

let cbc_decrypt key ~iv ciphertext =
  if String.length iv <> bs then invalid_arg "Block_mode.cbc_decrypt: bad IV";
  let n = String.length ciphertext in
  if n = 0 || n mod bs <> 0 then Error "cbc: ciphertext not block-aligned"
  else begin
    let buf = Bytes.of_string ciphertext in
    for i = (n / bs) - 1 downto 1 do
      Aes.decrypt_in_place key buf (i * bs);
      xor_into buf (i * bs) buf ((i - 1) * bs)
    done;
    Aes.decrypt_in_place key buf 0;
    xor_into buf 0 (Bytes.unsafe_of_string iv) 0;
    Result.map (fun pad -> Bytes.sub_string buf 0 (n - pad)) (pkcs7_padding buf n)
  end

(* --- CTR ----------------------------------------------------------------- *)

(* The counter occupies the last 8 bytes of the 16-byte block, big-endian. *)
let ctr_transform key ~nonce data =
  if String.length nonce > 8 then invalid_arg "Block_mode.ctr: nonce too long";
  let n = String.length data in
  let out = Bytes.create n in
  let keystream = Bytes.make bs '\000' in
  let i = ref 0 in
  let counter = ref 0 in
  while !i < n do
    Bytes.fill keystream 0 bs '\000';
    Bytes.blit_string nonce 0 keystream 0 (String.length nonce);
    Bytes.set_int64_be keystream 8 (Int64.of_int !counter);
    Aes.encrypt_in_place key keystream 0;
    let chunk = min bs (n - !i) in
    for j = 0 to chunk - 1 do
      Bytes.set out (!i + j)
        (Char.chr (Char.code data.[!i + j] lxor Char.code (Bytes.get keystream j)))
    done;
    i := !i + chunk;
    incr counter
  done;
  Bytes.unsafe_to_string out

let ctr_encrypt = ctr_transform
let ctr_decrypt = ctr_transform
