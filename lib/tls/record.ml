(* The TLS record layer: framing plus symmetric protection of application
   data.

   Protection is encrypt-then-MAC: AES-128-CTR with a per-record nonce
   derived from the write IV and the sequence number, then HMAC-SHA256
   over the sequence number, record header and ciphertext. The key block
   is derived from the master secret exactly as RFC 5246 section 6.3
   prescribes, which is what makes the paper's attacks concrete here: a
   recovered master secret (from a stolen STEK, a session cache, or a
   reused DH value) re-derives these keys and decrypts recorded records.
   See [Attack.decrypt_recorded_conversation] in the core library. *)


type t = { r_content_type : Types.content_type; r_version : Types.version; r_payload : string }

let header_len = 5
let max_payload = 16384

let make ~content_type ?(version = Types.TLS_1_2) payload =
  if String.length payload > max_payload then invalid_arg "Record.make: payload too large";
  { r_content_type = content_type; r_version = version; r_payload = payload }

let content_type r = r.r_content_type
let payload r = r.r_payload

let encoded_len r = header_len + String.length r.r_payload

let to_bytes_into buf ~pos r =
  let len = String.length r.r_payload in
  if len > 0xffff then invalid_arg "Record.to_bytes_into: payload too long";
  if pos < 0 || pos > Bytes.length buf - header_len - len then
    invalid_arg "Record.to_bytes_into: range out of bounds";
  Wire.Writer.set_u8 buf pos (Types.content_type_to_int r.r_content_type);
  Wire.Writer.set_u16 buf (pos + 1) (Types.version_to_int r.r_version);
  Wire.Writer.set_u16 buf (pos + 3) len;
  Bytes.blit_string r.r_payload 0 buf (pos + header_len) len;
  header_len + len

let to_bytes r =
  let buf = Bytes.create (encoded_len r) in
  ignore (to_bytes_into buf ~pos:0 r);
  Bytes.unsafe_to_string buf

let read r =
  let ct =
    match Types.content_type_of_int (Wire.Reader.u8 r) with
    | Some ct -> ct
    | None -> raise (Wire.Reader.Error "unknown content type")
  in
  let version =
    match Types.version_of_int (Wire.Reader.u16 r) with
    | Some v -> v
    | None -> raise (Wire.Reader.Error "unknown record version")
  in
  let payload = Wire.Reader.vec16 r in
  { r_content_type = ct; r_version = version; r_payload = payload }

let of_bytes s = Wire.Reader.parse_result s read

let read_all s =
  Wire.Reader.parse_result s (fun r ->
      let rec go acc = if Wire.Reader.is_empty r then List.rev acc else go (read r :: acc) in
      go [])

(* Decode straight out of a reused receive buffer; zero-copy on the
   framing side ({!Wire.Reader.of_bytes} aliases [buf]), with the payload
   copied out so the result outlives the buffer's next refill. *)
let of_bytes_sub buf ~pos ~len =
  match
    let r = Wire.Reader.of_bytes ~pos ~len buf in
    let v = read r in
    Wire.Reader.expect_end r;
    v
  with
  | v -> Ok v
  | exception Wire.Reader.Error msg -> Error msg

(* --- Connection protection ---------------------------------------------------- *)

let mac_key_len = 32
let enc_key_len = 16
let iv_len = 8
let mac_len = 32
let key_block_len = 2 * (mac_key_len + enc_key_len + iv_len)

type direction_keys = { mac : Crypto.Hmac.key; enc_key : Crypto.Aes.t; iv : string }

type keys = { client_write : direction_keys; server_write : direction_keys }

(* RFC 5246 section 6.3 partitioning order: client MAC, server MAC, client
   key, server key, client IV, server IV. *)
let derive_keys ~master ~client_random ~server_random =
  let block = Crypto.Prf.key_block ~master ~client_random ~server_random key_block_len in
  let off = ref 0 in
  let take n =
    let s = String.sub block !off n in
    off := !off + n;
    s
  in
  let client_mac = take mac_key_len in
  let server_mac = take mac_key_len in
  let client_key = take enc_key_len in
  let server_key = take enc_key_len in
  let client_iv = take iv_len in
  let server_iv = take iv_len in
  {
    client_write =
      { mac = Crypto.Hmac.key client_mac; enc_key = Crypto.Aes.of_key client_key; iv = client_iv };
    server_write =
      { mac = Crypto.Hmac.key server_mac; enc_key = Crypto.Aes.of_key server_key; iv = server_iv };
  }

type cipher_state = {
  keys : direction_keys;
  mutable seq : int;
  (* Scratch reused across records: the 8-byte CTR nonce and the 13-byte
     MAC prefix (sequence number plus record header), refilled in place
     for every record instead of rebuilt through Writer/concat. *)
  nonce_buf : Bytes.t;
  pre_buf : Bytes.t;
}

let cipher_state keys =
  { keys; seq = 0; nonce_buf = Bytes.create iv_len; pre_buf = Bytes.create (8 + header_len) }

(* Per-record nonce: write IV xor big-endian sequence number. *)
let record_nonce st =
  Wire.Writer.set_u64 st.nonce_buf 0 st.seq;
  let iv = st.keys.iv in
  for i = 0 to iv_len - 1 do
    Bytes.unsafe_set st.nonce_buf i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get st.nonce_buf i) lxor Char.code (String.unsafe_get iv i)))
  done;
  Bytes.to_string st.nonce_buf

(* MAC prefix: sequence number (8) || type (1) || version (2) || length (2),
   byte-identical to the seed's additional_data ^ header construction. *)
let mac_prefix st ~content_type ~version ~length =
  Wire.Writer.set_u64 st.pre_buf 0 st.seq;
  Wire.Writer.set_u8 st.pre_buf 8 (Types.content_type_to_int content_type);
  Wire.Writer.set_u16 st.pre_buf 9 (Types.version_to_int version);
  Wire.Writer.set_u16 st.pre_buf 11 length;
  Bytes.to_string st.pre_buf

(* Encrypt a plaintext record; advances the sequence number. *)
let seal st record =
  let nonce = record_nonce st in
  let ciphertext = Crypto.Block_mode.ctr_encrypt st.keys.enc_key ~nonce record.r_payload in
  let pre =
    mac_prefix st ~content_type:record.r_content_type ~version:record.r_version
      ~length:(String.length ciphertext)
  in
  let mac = Crypto.Hmac.mac_parts st.keys.mac [ pre; ciphertext ] in
  st.seq <- st.seq + 1;
  { record with r_payload = ciphertext ^ mac }

(* Decrypt a protected record; advances the sequence number. *)
let open_ st record =
  let n = String.length record.r_payload in
  if n < mac_len then Error Types.Bad_record_mac
  else begin
    let ciphertext = String.sub record.r_payload 0 (n - mac_len) in
    let mac = String.sub record.r_payload (n - mac_len) mac_len in
    let pre =
      mac_prefix st ~content_type:record.r_content_type ~version:record.r_version
        ~length:(String.length ciphertext)
    in
    let expected = Crypto.Hmac.mac_parts st.keys.mac [ pre; ciphertext ] in
    if not (Crypto.Hmac.equal_ct expected mac) then Error Types.Bad_record_mac
    else begin
      let nonce = record_nonce st in
      st.seq <- st.seq + 1;
      Ok { record with r_payload = Crypto.Block_mode.ctr_decrypt st.keys.enc_key ~nonce ciphertext }
    end
  end

(* Convenience: protect application bytes into wire records of bounded
   size, and the inverse given the peer's cipher state. *)
let seal_application_data st data =
  let rec chunks acc off =
    if off >= String.length data then List.rev acc
    else begin
      let len = min max_payload (String.length data - off) in
      chunks (String.sub data off len :: acc) (off + len)
    end
  in
  let pieces = if data = "" then [ "" ] else chunks [] 0 in
  List.map (fun piece -> seal st (make ~content_type:Types.Application_data piece)) pieces

let open_application_data st records =
  let rec go acc = function
    | [] -> Ok (String.concat "" (List.rev acc))
    | r :: rest -> (
        match open_ st r with
        | Error e -> Error e
        | Ok r -> go (payload r :: acc) rest)
  in
  go [] records
