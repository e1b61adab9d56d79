(* Concrete end-to-end demonstrations of the attacks whose *surface* the
   measurement study quantifies. Each demo plays the paper's threat
   model faithfully:

   1. a passive network observer records a victim's TLS handshake bytes
      and encrypted application records (our wiretap on the engine);
   2. at some later time the attacker obtains one piece of server-side
      secret state — a STEK, a cached ephemeral DH private value, or the
      session cache contents;
   3. from the recording plus that single secret, the session keys fall
      out and the recorded application data decrypts.

   Nothing here uses private client state: everything the attacker needs
   besides the stolen server secret is visible on the wire (client and
   server randoms, the ticket, the public key-exchange values). *)

module Msg = Tls.Handshake_msg

type capture = {
  mutable client_random : string;
  mutable server_random : string;
  mutable ticket : string option;
  mutable client_kex_public : string option;
  mutable server_session_id : string;
}

let empty_capture () =
  {
    client_random = "";
    server_random = "";
    ticket = None;
    client_kex_public = None;
    server_session_id = "";
  }

(* Parse the flight bytes the wiretap sees and squirrel away everything a
   passive observer learns. *)
let observe capture _direction bytes =
  match Msg.read_all bytes with
  | Error _ -> ()
  | Ok msgs ->
      List.iter
        (fun (m : Msg.framed) ->
          match m.Msg.msg with
          | Msg.Client_hello ch -> capture.client_random <- ch.Msg.ch_random
          | Msg.Server_hello sh ->
              capture.server_random <- sh.Msg.sh_random;
              capture.server_session_id <- sh.Msg.sh_session_id
          | Msg.New_session_ticket nst -> capture.ticket <- Some nst.Msg.nst_ticket
          | Msg.Client_key_exchange public -> capture.client_kex_public <- Some public
          | Msg.Certificate _ | Msg.Server_key_exchange _ | Msg.Server_hello_done
          | Msg.Finished _ ->
              ())
        msgs

(* A victim connection: handshake under the wiretap, then application
   data protected with the negotiated keys, recorded as ciphertext. *)
type recording = {
  capture : capture;
  outcome : Tls.Engine.outcome;
  encrypted_records : Tls.Record.t list; (* client -> server application data *)
  plaintext : string; (* what the victim actually sent (ground truth) *)
}

let victim_connection ?(plaintext = "POST /login user=alice&password=hunter2") client server
    ~now ~hostname ~offer =
  let capture = empty_capture () in
  let outcome =
    Tls.Engine.connect ~wiretap:(observe capture) client server ~now ~hostname ~offer
  in
  match outcome.Tls.Engine.session with
  | None -> Error "victim handshake failed"
  | Some session ->
      let keys =
        Tls.Record.derive_keys
          ~master:(Tls.Session.master_secret session)
          ~client_random:capture.client_random ~server_random:capture.server_random
      in
      let tx = Tls.Record.cipher_state keys.Tls.Record.client_write in
      let encrypted_records = Tls.Record.seal_application_data tx plaintext in
      Ok { capture; outcome; encrypted_records; plaintext }

(* Decrypt a recording given a recovered master secret: re-derive the key
   block exactly as the endpoints did. *)
let decrypt_with_master recording ~master =
  let keys =
    Tls.Record.derive_keys ~master ~client_random:recording.capture.client_random
      ~server_random:recording.capture.server_random
  in
  let rx = Tls.Record.cipher_state keys.Tls.Record.client_write in
  match Tls.Record.open_application_data rx recording.encrypted_records with
  | Ok plain -> Ok plain
  | Error a -> Error (Format.asprintf "decryption failed: %a" Tls.Types.pp_alert a)

(* The master secret an (EC)DHE pre-master secret yields on this
   recording's hello randoms, then the decryption under it. *)
let decrypt_with_pre_master recording pre_master =
  decrypt_with_master recording
    ~master:
      (Crypto.Prf.master_secret ~pre_master ~client_random:recording.capture.client_random
         ~server_random:recording.capture.server_random)

(* --- Attack 1: stolen STEK (Section 6.1) ------------------------------------- *)

let steal_stek_and_decrypt recording ~server ~now =
  match recording.capture.ticket with
  | None -> Error "no ticket on the wire"
  | Some ticket -> (
      match (Tls.Server.config server).Tls.Config.tickets with
      | None -> Error "server has no ticket machinery to compromise"
      | Some tc -> (
          (* The compromise: read the STEK out of the server. *)
          let find_stek key_name =
            Tls.Stek_manager.find_for_decrypt tc.Tls.Config.stek_manager ~now key_name
          in
          match Tls.Ticket.decrypt_with_stolen_stek ~find_stek ticket with
          | Error e -> Error (Format.asprintf "%a" Tls.Ticket.pp_unseal_error e)
          | Ok session ->
              decrypt_with_master recording ~master:(Tls.Session.master_secret session)))

(* --- Attack 2: stolen ephemeral DH value (Section 6.3) ------------------------ *)

let steal_kex_value_and_decrypt recording ~server ~env =
  let kex_cache = (Tls.Server.config server).Tls.Config.kex_cache in
  match recording.capture.client_kex_public with
  | None -> Error "no ClientKeyExchange on the wire"
  | Some client_public -> (
      match recording.outcome.Tls.Engine.cipher with
      | Some suite -> (
          match Tls.Types.suite_kex suite with
          | Tls.Types.Ecdhe when String.length client_public = Crypto.X25519.key_len -> (
              (* NIST-curve ClientKeyExchanges carry an uncompressed point
                 (0x04 || X || Y, odd length); a 32-byte payload can only
                 be an X25519 share. *)
              match Tls.Kex_cache.current_x25519 kex_cache with
              | None -> Error "server holds no cached X25519 value (nothing to steal)"
              | Some stolen ->
                  Result.bind
                    (Crypto.X25519.shared_secret stolen ~peer_pub:client_public)
                    (decrypt_with_pre_master recording))
          | Tls.Types.Ecdhe -> (
              match Tls.Kex_cache.current_ecdhe kex_cache with
              | None -> Error "server holds no cached ECDHE value (nothing to steal)"
              | Some stolen -> (
                  match Crypto.Ec.point_of_bytes env.Tls.Config.ecdhe_curve client_public with
                  | Error e -> Error e
                  | Ok client_point ->
                      Result.bind
                        (Crypto.Ec.shared_secret stolen ~peer_pub:client_point)
                        (decrypt_with_pre_master recording)))
          | Tls.Types.Dhe -> (
              match Tls.Kex_cache.current_dhe kex_cache with
              | None -> Error "server holds no cached DHE value (nothing to steal)"
              | Some stolen ->
                  Result.bind
                    (Crypto.Dh.shared_secret stolen
                       ~peer_pub:(Crypto.Bignum.of_bytes_be client_public))
                    (decrypt_with_pre_master recording))
          | Tls.Types.Static_ecdh -> Error "static suite: steal the certificate key instead")
      | None -> Error "victim connection failed")

(* --- Attack 3: stolen session cache (Section 6.2) ------------------------------ *)

let steal_session_cache_and_decrypt recording ~server =
  match (Tls.Server.config server).Tls.Config.session_cache with
  | None -> Error "server keeps no session cache"
  | Some cache -> (
      let target_id = recording.capture.server_session_id in
      let sessions = Tls.Session_cache.dump cache in
      match
        List.find_opt (fun s -> String.equal (Tls.Session.id s) target_id) sessions
      with
      | None -> Error "victim session no longer in the cache"
      | Some session ->
          decrypt_with_master recording ~master:(Tls.Session.master_secret session))

(* --- Negative control: forward secrecy done right ------------------------------- *)

(* Against a server with no tickets, no cache and fresh ephemerals, the
   same attacker gets nothing: nothing on the server opens the recording. *)
let attempt_all recording ~server ~env ~now =
  [
    ("stolen STEK", steal_stek_and_decrypt recording ~server ~now);
    ("stolen DH value", steal_kex_value_and_decrypt recording ~server ~env);
    ("stolen session cache", steal_session_cache_and_decrypt recording ~server);
  ]
