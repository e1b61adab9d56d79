(* Byzantine response synthesis: what a misbehaving peer sends back.

   Rather than flipping a coin labelled "malformed", an injected
   byzantine fault *builds the hostile bytes and runs them through the
   real codecs*: a canned valid transcript (hello, server flight,
   session blob, sealed ticket, record stream) is mutated at a
   Det-chosen offset with a Det-chosen operation (byte flip, truncation,
   zeroed or maximized length runs, garbage splice, version rewrite,
   slice duplication), then decoded by the same total parsers the
   scanner uses. The decoder's verdict classifies the fault:

   - the typed parse rejects the bytes      -> {!Fault.Malformed_response}
   - the bytes parse but carry corrupted
     semantics (bad MAC, wrong random,
     stale ticket state)                    -> {!Fault.Protocol_violation}

   Every draw is a pure {!Det} hash of the caller's key, so the schedule
   is stateless like the rest of the injector: no Rng stream moves, and
   decisions are identical at any worker count. The module doubles as a
   continuous totality check — if a codec ever raised on mutated input,
   every byzantine campaign would crash instead of classifying. *)

module Session = Tls.Session
module Ticket = Tls.Ticket
module Stek = Tls.Stek
module Handshake_msg = Tls.Handshake_msg
module Extension = Tls.Extension
module Record = Tls.Record

(* --- Canned templates ------------------------------------------------------ *)

(* Built once from fixed seeds; the generators here are private to template
   construction and never touch simulation streams. *)

let template_rng label = Crypto.Rng.create ~seed:("byzantine-template|" ^ label)

let template_stek =
  Stek.derive ~secret:"byzantine-template-stek" ~period:(14 * 3600) ~now:86400

let find_stek name =
  if String.equal name (Stek.key_name template_stek) then Some template_stek else None

let template_session =
  let rng = template_rng "session" in
  Session.make
    ~id:(Crypto.Rng.generate rng Tls.Types.session_id_max)
    ~master_secret:(Crypto.Rng.generate rng Crypto.Prf.master_secret_len)
    ~cipher_suite:Tls.Types.ECDHE_ECDSA_AES128_SHA256 ~established_at:86400

let template_ticket =
  Ticket.seal template_stek (template_rng "ticket") template_session

let msg_bytes msgs = String.concat "" (List.map Handshake_msg.to_bytes msgs)

let template_client_hello =
  let rng = template_rng "ch" in
  msg_bytes
    [
      Handshake_msg.Client_hello
        {
          ch_version = Tls.Types.TLS_1_2;
          ch_random = Crypto.Rng.generate rng Tls.Types.random_len;
          ch_session_id = "";
          ch_cipher_suites =
            List.map Tls.Types.suite_to_int Tls.Types.all_cipher_suites;
          ch_extensions =
            [
              Extension.Server_name "byzantine.example";
              Extension.Supported_groups [ Tls.Types.x25519_group_id; 23 ];
              Extension.Session_ticket "";
            ];
        };
    ]

let template_server_hello rng =
  Handshake_msg.Server_hello
    {
      sh_version = Tls.Types.TLS_1_2;
      sh_random = Crypto.Rng.generate rng Tls.Types.random_len;
      sh_session_id = Crypto.Rng.generate rng Tls.Types.session_id_max;
      sh_cipher_suite = Tls.Types.DHE_ECDSA_AES128_SHA256;
      sh_extensions = [ Extension.Renegotiation_info ];
    }

let template_full_flight =
  let rng = template_rng "full" in
  let group = Crypto.Dh.oakley2 in
  msg_bytes
    [
      template_server_hello rng;
      Handshake_msg.Certificate
        [ Crypto.Rng.generate rng 200; Crypto.Rng.generate rng 180 ];
      Handshake_msg.Server_key_exchange
        {
          ske_params =
            Handshake_msg.Ske_dhe
              {
                dh_p = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_p group);
                dh_g = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_g group);
                dh_ys = Crypto.Rng.generate rng 128;
              };
          ske_signature = Crypto.Rng.generate rng 64;
        };
      Handshake_msg.Server_hello_done;
    ]

let template_abbreviated_flight =
  let rng = template_rng "abbrev" in
  msg_bytes
    [
      template_server_hello rng;
      Handshake_msg.New_session_ticket
        { nst_lifetime_hint = 28 * 3600; nst_ticket = template_ticket };
      Handshake_msg.Finished (Crypto.Rng.generate rng Tls.Types.verify_data_len);
    ]

let template_record_stream =
  Record.to_bytes
    (Record.make ~content_type:Tls.Types.Handshake_ct template_abbreviated_flight)
  ^ Record.to_bytes
      (Record.make ~content_type:Tls.Types.Application_data
         (Crypto.Rng.generate (template_rng "appdata") 256))

(* What decodes a template's mutated bytes. *)
type target = Handshake_flight | Session_blob | Ticket_blob | Record_stream

let templates =
  [|
    ("client-hello", Handshake_flight, template_client_hello);
    ("full-flight", Handshake_flight, template_full_flight);
    ("abbreviated-flight", Handshake_flight, template_abbreviated_flight);
    ("session-blob", Session_blob, Session.to_bytes template_session);
    ("ticket-blob", Ticket_blob, template_ticket);
    ("record-stream", Record_stream, template_record_stream);
  |]

(* --- Mutations ------------------------------------------------------------- *)

(* All offsets and values are Det draws under [key]; every operation
   keeps the output length <= input + 32 bytes, so mutation itself can
   never amplify allocation. *)

let op_count = 7

let mutate ~key s =
  let n = String.length s in
  let sub k = key ^ "|" ^ k in
  let pos limit k = Det.int_in (sub k) ~lo:0 ~hi:(max 0 (limit - 1)) in
  match Det.int_in (sub "op") ~lo:0 ~hi:(op_count - 1) with
  | 0 ->
      (* Flip one byte to a guaranteed-different value. *)
      let b = Bytes.of_string s in
      let p = pos n "pos" in
      Bytes.set b p
        (Char.chr (Char.code (Bytes.get b p) lxor Det.int_in (sub "xor") ~lo:1 ~hi:255));
      Bytes.to_string b
  | 1 -> String.sub s 0 (pos n "cut")
  | 2 ->
      (* Zero a short run: hits length fields as often as payload. *)
      let b = Bytes.of_string s in
      let p = pos n "pos" in
      let len = min (Det.int_in (sub "len") ~lo:1 ~hi:4) (n - p) in
      Bytes.fill b p len '\x00';
      Bytes.to_string b
  | 3 ->
      (* Maximize a short run: oversized length fields. *)
      let b = Bytes.of_string s in
      let p = pos n "pos" in
      let len = min (Det.int_in (sub "len") ~lo:1 ~hi:4) (n - p) in
      Bytes.fill b p len '\xff';
      Bytes.to_string b
  | 4 ->
      (* Splice garbage bytes at an arbitrary offset. *)
      let p = pos (n + 1) "pos" in
      let glen = Det.int_in (sub "glen") ~lo:1 ~hi:32 in
      let garbage =
        String.init glen (fun i ->
            Char.chr (Det.int_in (sub (Printf.sprintf "g%d" i)) ~lo:0 ~hi:255))
      in
      String.sub s 0 p ^ garbage ^ String.sub s p (n - p)
  | 5 ->
      (* Rewrite the first version-shaped pair (0x03 0x01..0x03) to an
         arbitrary minor version; falls back to a flip if none exists. *)
      let b = Bytes.of_string s in
      let rec find i =
        if i + 1 >= n then None
        else if Bytes.get b i = '\x03' && Bytes.get b (i + 1) <= '\x03' then Some i
        else find (i + 1)
      in
      (match find 0 with
      | Some i -> Bytes.set b (i + 1) (Char.chr (Det.int_in (sub "minor") ~lo:4 ~hi:255))
      | None ->
          let p = pos n "pos" in
          Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0x80)));
      Bytes.to_string b
  | _ ->
      (* Duplicate a slice in place. *)
      let p = pos n "pos" in
      let len = min (Det.int_in (sub "len") ~lo:1 ~hi:32) (n - p) in
      String.sub s 0 (p + len) ^ String.sub s p (n - p)

(* --- Classification -------------------------------------------------------- *)

let decode target bytes =
  match target with
  | Handshake_flight -> Result.is_ok (Handshake_msg.read_all bytes)
  | Session_blob -> Result.is_ok (Session.of_bytes bytes)
  | Record_stream -> Result.is_ok (Record.read_all bytes)
  | Ticket_blob -> (
      match Ticket.unseal ~find_stek bytes with
      | Ok _ -> true
      | Error (Ticket.Bad_mac | Ticket.Unknown_key_name _) ->
          (* Framing survived; the cryptographic check is what failed. *)
          true
      | Error (Ticket.Too_short | Ticket.Corrupt_state _) -> false)

let classify ~key =
  let name, target, template =
    templates.(Det.int_in (key ^ "|tpl") ~lo:0 ~hi:(Array.length templates - 1))
  in
  let mutated = mutate ~key:(key ^ "|" ^ name) template in
  if decode target mutated then Fault.Protocol_violation else Fault.Malformed_response
