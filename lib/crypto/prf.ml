(* The TLS 1.2 pseudorandom function (RFC 5246 section 5): P_SHA256 over
   HMAC-SHA256, plus the two standard derivations the handshake needs. *)

(* A(i) = HMAC(secret, A(i-1)) with A(0) = seed; output block i is
   HMAC(secret, A(i) || seed). A(i + 1) is computed only when block i + 1
   is needed. *)
let p_sha256 ~secret ~seed n =
  let ctx = Hmac.key secret in
  let buf = Buffer.create n in
  let rec fill a =
    Buffer.add_string buf (Hmac.mac_parts ctx [ a; seed ]);
    if Buffer.length buf < n then fill (Hmac.mac ctx a)
  in
  if n > 0 then fill (Hmac.mac ctx seed);
  Buffer.sub buf 0 n

let prf ~secret ~label ~seed n = p_sha256 ~secret ~seed:(label ^ seed) n

let master_secret_len = 48

let master_secret ~pre_master ~client_random ~server_random =
  prf ~secret:pre_master ~label:"master secret"
    ~seed:(client_random ^ server_random)
    master_secret_len

let key_block ~master ~client_random ~server_random n =
  (* Note the reversed random order relative to the master secret
     derivation, as specified in RFC 5246 section 6.3. *)
  prf ~secret:master ~label:"key expansion" ~seed:(server_random ^ client_random) n

let verify_data_len = 12

let finished_verify_data ~master ~label ~handshake_hash =
  prf ~secret:master ~label ~seed:handshake_hash verify_data_len

let client_finished ~master ~handshake_hash =
  finished_verify_data ~master ~label:"client finished" ~handshake_hash

let server_finished ~master ~handshake_hash =
  finished_verify_data ~master ~label:"server finished" ~handshake_hash
