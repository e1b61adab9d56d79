(* The TLS 1.2 pseudorandom function (RFC 5246 section 5): P_SHA256 over
   HMAC-SHA256, plus the two standard derivations the handshake needs. *)

(* A(i) = HMAC(secret, A(i-1)) with A(0) = seed; output block i is
   HMAC(secret, A(i) || seed), written straight into the output. A(i + 1)
   is computed only when block i + 1 is needed. [ctx] is the secret's
   keyed HMAC context. *)
let p_sha256 ctx ~seed n =
  let out = Bytes.create n in
  let rec fill a pos =
    let block = Hmac.mac_parts ctx [ a; seed ] in
    Bytes.blit_string block 0 out pos (min Sha256.digest_size (n - pos));
    if pos + Sha256.digest_size < n then fill (Hmac.mac ctx a) (pos + Sha256.digest_size)
  in
  if n > 0 then fill (Hmac.mac ctx seed) 0;
  Bytes.unsafe_to_string out

let prf ~secret ~label ~seed n = p_sha256 (Hmac.key secret) ~seed:(label ^ seed) n

let master_secret_len = 48

let master_secret ~pre_master ~client_random ~server_random =
  prf ~secret:pre_master ~label:"master secret"
    ~seed:(client_random ^ server_random)
    master_secret_len

let key_block ~master ~client_random ~server_random n =
  (* Note the reversed random order relative to the master secret
     derivation, as specified in RFC 5246 section 6.3. *)
  prf ~secret:master ~label:"key expansion" ~seed:(server_random ^ client_random) n

(* A master secret keyed once: both Finished messages of a connection
   reuse its HMAC midstates instead of rekeying (two compressions) per
   message. *)
type master = Hmac.key

let key_master = Hmac.key
let verify_data_len = 12

let finished_verify_data master ~label ~handshake_hash =
  p_sha256 master ~seed:(label ^ handshake_hash) verify_data_len

let client_finished master ~handshake_hash =
  finished_verify_data master ~label:"client finished" ~handshake_hash

let server_finished master ~handshake_hash =
  finished_verify_data master ~label:"server finished" ~handshake_hash
