(* Session Ticket Encryption Keys (STEKs): the key material a server uses
   to seal RFC 5077 session tickets. The 16-byte key name travels inside
   every ticket in the clear — it is the identifier the paper's scanner
   tracks across days to bound STEK lifetimes (Section 4.3). *)

type t = {
  key_name : string; (* 16 bytes, public, embedded in tickets *)
  aes_key : Crypto.Aes.t; (* AES-128-CBC key, per RFC 5077's recommendation *)
  mac : Crypto.Hmac.key; (* keyed HMAC-SHA256 context of the 32-byte MAC key *)
  created_at : int; (* epoch seconds *)
}

let key_name_len = 16
let aes_key_len = 16
let hmac_key_len = 32

(* 64 raw bytes: name || AES key || HMAC key — the shape of the key files
   Apache 2.4 / Nginx 1.5.7+ load from disk to synchronize STEKs across
   servers (the synchronization the paper flags as an attack surface). *)
let raw_len = key_name_len + aes_key_len + hmac_key_len

let of_raw ~created_at raw =
  if String.length raw <> raw_len then
    invalid_arg (Printf.sprintf "Stek.of_raw: need %d bytes" raw_len);
  {
    key_name = String.sub raw 0 key_name_len;
    aes_key = Crypto.Aes.of_key (String.sub raw key_name_len aes_key_len);
    mac = Crypto.Hmac.key (String.sub raw (key_name_len + aes_key_len) hmac_key_len);
    created_at;
  }

let generate rng ~now = of_raw ~created_at:now (Crypto.Drbg.generate rng raw_len)

(* Deterministic derivation, used for epoch-aligned rotation schedules:
   the STEK for period [k] of a given secret is a pure function of both. *)
let derive ~secret ~period ~now =
  let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "stek:%s:%d" secret period) in
  of_raw ~created_at:now (Crypto.Drbg.generate rng raw_len)

let key_name t = t.key_name
let aes_key t = t.aes_key
let mac t = t.mac
let created_at t = t.created_at

let key_name_hex t = Wire.Hex.encode t.key_name
