(* RFC 5077 session tickets: the server's session state, sealed under a
   STEK and handed to the client.

       struct {
           opaque key_name[16];
           opaque iv[16];
           opaque encrypted_state<0..2^16-1>;
           opaque mac[32];
       } ticket;

   Encryption is AES-128-CBC and the MAC is HMAC-SHA256 over
   key_name || iv || encrypted_state, exactly the construction the RFC
   recommends. Anyone holding the STEK can open every ticket sealed with
   it — which is the paper's central attack (Section 6.1). *)

let iv_len = 16
let mac_len = 32

(* The envelope seals an opaque plaintext; what it carries is the
   caller's codec (a 1.2 [Session] here, a 1.3 PSK state in [Tls13]). The
   IV is the only draw from [rng]. *)
let seal_plain stek rng plain =
  let iv = Crypto.Rng.generate rng iv_len in
  let encrypted = Crypto.Block_mode.cbc_encrypt (Stek.aes_key stek) ~iv plain in
  let body =
    Wire.Writer.build (fun w ->
        Wire.Writer.bytes w (Stek.key_name stek);
        Wire.Writer.bytes w iv;
        Wire.Writer.vec16 w encrypted)
  in
  body ^ Crypto.Hmac.mac (Stek.mac stek) body

let seal stek rng session = seal_plain stek rng (Session.to_bytes session)

(* The key name is visible to anyone holding the ticket (it rides outside
   the encryption); the scanner uses it to track STEK lifetimes. *)
let peek_key_name ticket =
  if String.length ticket < Stek.key_name_len then None
  else Some (String.sub ticket 0 Stek.key_name_len)

type unseal_error =
  | Too_short
  | Unknown_key_name of string
  | Bad_mac
  | Corrupt_state of string

let pp_unseal_error ppf = function
  | Too_short -> Format.fprintf ppf "ticket too short"
  | Unknown_key_name n -> Format.fprintf ppf "unknown STEK key name %s" (Wire.Hex.encode n)
  | Bad_mac -> Format.fprintf ppf "ticket MAC check failed"
  | Corrupt_state e -> Format.fprintf ppf "corrupt ticket state: %s" e

(* [unseal_plain ~decode ~find_stek ticket] resolves the STEK by key name
   (a server may accept tickets from several recent STEKs while issuing
   with the newest one, as Google's 14h-issue / 28h-accept schedule
   does), checks the MAC, decrypts, and hands the plaintext to
   [decode]. *)
let unseal_plain ~decode ~find_stek ticket =
  let n = String.length ticket in
  if n < Stek.key_name_len + iv_len + 2 + mac_len then Error Too_short
  else begin
    let key_name = String.sub ticket 0 Stek.key_name_len in
    match find_stek key_name with
    | None -> Error (Unknown_key_name key_name)
    | Some stek ->
        let body = String.sub ticket 0 (n - mac_len) in
        let mac = String.sub ticket (n - mac_len) mac_len in
        if not (Crypto.Hmac.equal_ct (Crypto.Hmac.mac (Stek.mac stek) body) mac) then Error Bad_mac
        else begin
          let parse r =
            let _key_name = Wire.Reader.take r Stek.key_name_len in
            let iv = Wire.Reader.take r iv_len in
            let encrypted = Wire.Reader.vec16 r in
            (iv, encrypted)
          in
          match Wire.Reader.parse_result body parse with
          | Error e -> Error (Corrupt_state e)
          | Ok (iv, encrypted) -> (
              match Crypto.Block_mode.cbc_decrypt (Stek.aes_key stek) ~iv encrypted with
              | Error e -> Error (Corrupt_state e)
              | Ok plain -> (
                  match decode plain with
                  | Error e -> Error (Corrupt_state e)
                  | Ok state -> Ok state))
        end
  end

let unseal ~find_stek ticket = unseal_plain ~decode:Session.of_bytes ~find_stek ticket

(* The passive attack the paper quantifies: given a recorded ticket and a
   stolen STEK, recover the session (and with it every session key). *)
let decrypt_with_stolen_stek = unseal
