(* TLS handshake messages (RFC 5246 section 7.4 subset) and their wire
   codec: one-byte message type, three-byte length, then the body.

   One encoding per message: a party encodes each message it sends once,
   with [frame], and the resulting bytes serve both the wire and its own
   transcript hash. [read_all] hands the receiver each message together
   with the exact bytes it arrived as, and the receiver hashes those
   (RFC 5246 section 7.4.9: the transcript is the data as exchanged), so
   no message is ever re-encoded. *)

type client_hello = {
  ch_version : Types.version;
  ch_random : string; (* 32 bytes *)
  ch_session_id : string; (* 0..32 bytes; non-empty offers ID resumption *)
  ch_cipher_suites : int list; (* raw code points, preserving unknown offers *)
  ch_extensions : Extension.t list;
}

type server_hello = {
  sh_version : Types.version;
  sh_random : string;
  sh_session_id : string;
  sh_cipher_suite : Types.cipher_suite;
  sh_extensions : Extension.t list;
}

(* ServerKeyExchange parameters. DHE carries the group explicitly like real
   TLS; ECDHE names the curve. *)
type ske_params =
  | Ske_dhe of { dh_p : string; dh_g : string; dh_ys : string }
  | Ske_ecdhe of { curve_id : int; point : string }

type server_key_exchange = { ske_params : ske_params; ske_signature : string }

type new_session_ticket = { nst_lifetime_hint : int; (* seconds *) nst_ticket : string }

type t =
  | Client_hello of client_hello
  | Server_hello of server_hello
  | Certificate of string list (* encoded certificates, leaf first *)
  | Server_key_exchange of server_key_exchange
  | Server_hello_done
  | Client_key_exchange of string (* client public value, kex-specific *)
  | New_session_ticket of new_session_ticket
  | Finished of string (* 12-byte verify_data *)

let type_code = function
  | Client_hello _ -> 1
  | Server_hello _ -> 2
  | New_session_ticket _ -> 4
  | Certificate _ -> 11
  | Server_key_exchange _ -> 12
  | Server_hello_done -> 14
  | Client_key_exchange _ -> 16
  | Finished _ -> 20

let message_name = function
  | Client_hello _ -> "ClientHello"
  | Server_hello _ -> "ServerHello"
  | New_session_ticket _ -> "NewSessionTicket"
  | Certificate _ -> "Certificate"
  | Server_key_exchange _ -> "ServerKeyExchange"
  | Server_hello_done -> "ServerHelloDone"
  | Client_key_exchange _ -> "ClientKeyExchange"
  | Finished _ -> "Finished"

(* --- Body encoders --------------------------------------------------------- *)

let write_body w = function
  | Client_hello ch ->
      Wire.Writer.u16 w (Types.version_to_int ch.ch_version);
      Wire.Writer.bytes w ch.ch_random;
      Wire.Writer.vec8 w ch.ch_session_id;
      Wire.Writer.vec16 w
        (Wire.Writer.build (fun w' -> List.iter (Wire.Writer.u16 w') ch.ch_cipher_suites));
      (* Legacy compression methods: null only. *)
      Wire.Writer.vec8 w "\x00";
      Extension.write_block w ch.ch_extensions
  | Server_hello sh ->
      Wire.Writer.u16 w (Types.version_to_int sh.sh_version);
      Wire.Writer.bytes w sh.sh_random;
      Wire.Writer.vec8 w sh.sh_session_id;
      Wire.Writer.u16 w (Types.suite_to_int sh.sh_cipher_suite);
      Wire.Writer.u8 w 0 (* null compression *);
      Extension.write_block w sh.sh_extensions
  | Certificate chain ->
      let body = Wire.Writer.build (fun w' -> List.iter (Wire.Writer.vec24 w') chain) in
      Wire.Writer.vec24 w body
  | Server_key_exchange { ske_params; ske_signature } ->
      (match ske_params with
      | Ske_dhe { dh_p; dh_g; dh_ys } ->
          Wire.Writer.u8 w 1;
          Wire.Writer.vec16 w dh_p;
          Wire.Writer.vec16 w dh_g;
          Wire.Writer.vec16 w dh_ys
      | Ske_ecdhe { curve_id; point } ->
          Wire.Writer.u8 w 2;
          Wire.Writer.u16 w curve_id;
          Wire.Writer.vec16 w point);
      Wire.Writer.vec16 w ske_signature
  | Server_hello_done -> ()
  | Client_key_exchange public -> Wire.Writer.vec16 w public
  | New_session_ticket { nst_lifetime_hint; nst_ticket } ->
      Wire.Writer.u32 w nst_lifetime_hint;
      Wire.Writer.vec16 w nst_ticket
  | Finished verify_data -> Wire.Writer.bytes w verify_data

let to_bytes msg =
  Wire.Writer.build (fun w ->
      Wire.Writer.u8 w (type_code msg);
      Wire.Writer.vec24 w (Wire.Writer.build (fun w' -> write_body w' msg)))

type framed = { msg : t; bytes : string }

let frame msg = { msg; bytes = to_bytes msg }

(* --- Body decoders --------------------------------------------------------- *)

let read_version r =
  match Types.version_of_int (Wire.Reader.u16 r) with
  | Some v -> v
  | None -> raise (Wire.Reader.Error "unsupported protocol version")

let read_client_hello r =
  let ch_version = read_version r in
  let ch_random = Wire.Reader.take r Types.random_len in
  let ch_session_id = Wire.Reader.vec8 r in
  if String.length ch_session_id > Types.session_id_max then
    raise (Wire.Reader.Error "session ID too long");
  let suites = Wire.Reader.sub r (Wire.Reader.u16 r) in
  let rec go acc =
    if Wire.Reader.is_empty suites then List.rev acc else go (Wire.Reader.u16 suites :: acc)
  in
  let ch_cipher_suites = go [] in
  let _compression = Wire.Reader.vec8 r in
  let ch_extensions = Extension.read_block r in
  Client_hello { ch_version; ch_random; ch_session_id; ch_cipher_suites; ch_extensions }

let read_server_hello r =
  let sh_version = read_version r in
  let sh_random = Wire.Reader.take r Types.random_len in
  let sh_session_id = Wire.Reader.vec8 r in
  if String.length sh_session_id > Types.session_id_max then
    raise (Wire.Reader.Error "session ID too long");
  let suite_code = Wire.Reader.u16 r in
  let sh_cipher_suite =
    match Types.suite_of_int suite_code with
    | Some s -> s
    | None -> raise (Wire.Reader.Error "unknown cipher suite in ServerHello")
  in
  let _compression = Wire.Reader.u8 r in
  let sh_extensions = Extension.read_block r in
  Server_hello { sh_version; sh_random; sh_session_id; sh_cipher_suite; sh_extensions }

let read_certificate r =
  let body = Wire.Reader.sub r (Wire.Reader.u24 r) in
  let rec go acc =
    if Wire.Reader.is_empty body then List.rev acc else go (Wire.Reader.vec24 body :: acc)
  in
  Certificate (go [])

let read_server_key_exchange r =
  let ske_params =
    match Wire.Reader.u8 r with
    | 1 ->
        let dh_p = Wire.Reader.vec16 r in
        let dh_g = Wire.Reader.vec16 r in
        let dh_ys = Wire.Reader.vec16 r in
        Ske_dhe { dh_p; dh_g; dh_ys }
    | 2 ->
        let curve_id = Wire.Reader.u16 r in
        let point = Wire.Reader.vec16 r in
        Ske_ecdhe { curve_id; point }
    | _ -> raise (Wire.Reader.Error "unknown ServerKeyExchange kind")
  in
  let ske_signature = Wire.Reader.vec16 r in
  Server_key_exchange { ske_params; ske_signature }

let read_new_session_ticket r =
  let nst_lifetime_hint = Wire.Reader.u32 r in
  let nst_ticket = Wire.Reader.vec16 r in
  New_session_ticket { nst_lifetime_hint; nst_ticket }

let read r =
  let code = Wire.Reader.u8 r in
  let body = Wire.Reader.sub r (Wire.Reader.u24 r) in
  let msg =
    match code with
    | 1 -> read_client_hello body
    | 2 -> read_server_hello body
    | 4 -> read_new_session_ticket body
    | 11 -> read_certificate body
    | 12 -> read_server_key_exchange body
    | 14 -> Server_hello_done
    | 16 -> Client_key_exchange (Wire.Reader.vec16 body)
    | 20 -> Finished (Wire.Reader.take body Types.verify_data_len)
    | n -> raise (Wire.Reader.Error (Printf.sprintf "unknown handshake type %d" n))
  in
  Wire.Reader.expect_end body;
  msg

let of_bytes s = Wire.Reader.parse_result s read

(* Parse a concatenated sequence of handshake messages (one flight),
   each with the slice of [s] it was read from. *)
let read_all s =
  Wire.Reader.parse_result s (fun r ->
      let rec go acc =
        if Wire.Reader.is_empty r then List.rev acc
        else
          let start = Wire.Reader.pos r in
          let msg = read r in
          go ({ msg; bytes = String.sub s start (Wire.Reader.pos r - start) } :: acc)
      in
      go [])

(* --- Transcript -------------------------------------------------------------- *)

(* The transcript is a running hash over each message's wire bytes, as
   sent or as received; each Finished reads a copy of it, so no
   handshake re-hashes the messages (certificate chain included) it has
   already absorbed. *)
let absorb transcript m = Crypto.Sha256.update transcript m.bytes

let send transcript msg =
  let m = frame msg in
  absorb transcript m;
  m

let transcript_hash transcript = Crypto.Sha256.finalize (Crypto.Sha256.copy transcript)
