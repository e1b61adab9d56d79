(* The server half of the handshake engine.

   Flow for a full handshake (TLS 1.2 message order):

     C -> S   ClientHello                         [handle_client_hello]
     S -> C   ServerHello Certificate
              (ServerKeyExchange) ServerHelloDone
     C -> S   ClientKeyExchange Finished          [handle_client_flight]
     S -> C   (NewSessionTicket) Finished

   and for an abbreviated (resumed) handshake:

     C -> S   ClientHello (session ID or ticket)  [handle_client_hello]
     S -> C   ServerHello (NewSessionTicket) Finished
     C -> S   Finished                            [handle_client_finished]

   The engine performs the real cryptography end to end: (EC)DHE key
   exchange with the configured reuse policy, ECDSA signatures over the
   key-exchange parameters, RFC 5077 ticket sealing under the managed
   STEK, session caching, and Finished verification over the running
   transcript hash. *)

module Msg = Handshake_msg

type t = { config : Config.server_config; rng : Crypto.Rng.t }

let create ~config ~rng = { config; rng }
let config t = t.config

(* Simulated process restart: per-process STEKs and cached ephemeral
   values die; a static key file and the session cache (often an external
   memcache) survive. Shared state managers are restarted through the
   config so that co-located domains restart together. *)
let restart t ~now =
  (match t.config.Config.tickets with
  | Some tc -> Stek_manager.restart tc.Config.stek_manager ~now
  | None -> ());
  Kex_cache.restart t.config.Config.kex_cache

(* --- Negotiation -------------------------------------------------------------- *)

let select_suite t (offered : int list) =
  List.find_opt (fun s -> List.mem (Types.suite_to_int s) offered) t.config.Config.suites

type kex_secret =
  | Dhe_secret of Crypto.Dh.keypair
  | Ecdhe_secret of Crypto.Ec.keypair
  | X25519_secret of Crypto.X25519.keypair
  | Static_secret

type pending = {
  p_server : t;
  p_transcript : Crypto.Sha256.t;
  p_client_random : string;
  p_server_random : string;
  p_suite : Types.cipher_suite;
  p_session_id : string; (* ID the new session will get; "" if none *)
  p_ticket_negotiated : bool;
  p_kex : kex_secret;
}

type resuming = {
  r_session : Session.t;
  r_expected_verify : string; (* client Finished we await *)
}

type hello_result =
  | Negotiating of Msg.framed list * pending
  | Resuming of Msg.framed list * resuming * [ `Via_session_id | `Via_ticket ]

let signed_params ~client_random ~server_random params_bytes =
  client_random ^ server_random ^ params_bytes

let ske_params_bytes = function
  | Msg.Ske_dhe { dh_p; dh_g; dh_ys } ->
      Wire.Writer.build (fun w ->
          Wire.Writer.vec16 w dh_p;
          Wire.Writer.vec16 w dh_g;
          Wire.Writer.vec16 w dh_ys)
  | Msg.Ske_ecdhe { curve_id; point } ->
      Wire.Writer.build (fun w ->
          Wire.Writer.u16 w curve_id;
          Wire.Writer.vec16 w point)

(* Pick the ECDHE group: X25519 when the client ranks group 29 above the
   environment's Weierstrass curve in its supported_groups extension. *)
let client_prefers_x25519 ~env exts =
  match
    List.find_map (function Extension.Supported_groups g -> Some g | _ -> None) exts
  with
  | None -> false
  | Some groups ->
      let rec first = function
        | [] -> false
        | g :: _ when g = Types.x25519_group_id -> true
        | g :: _ when g = env.Config.ecdhe_curve_id -> false
        | _ :: rest -> first rest
      in
      first groups

(* The keypair is drawn before the signature: both come from [t.rng]. *)
let make_server_key_exchange t ~now ~client_random ~server_random ~client_exts suite =
  let env = t.config.Config.env in
  let cache = t.config.Config.kex_cache in
  let signed (params, secret) =
    let signature =
      Crypto.Ecdsa.signature_bytes env.Config.pki_curve
        (Crypto.Ecdsa.sign t.config.Config.cert_key t.rng
           (signed_params ~client_random ~server_random (ske_params_bytes params)))
    in
    (Some (Msg.Server_key_exchange { ske_params = params; ske_signature = signature }), secret)
  in
  match Types.suite_kex suite with
  | Types.Static_ecdh -> (None, Static_secret)
  | Types.Ecdhe when client_prefers_x25519 ~env client_exts ->
      let kp = Kex_cache.x25519_keypair cache ~now t.rng in
      signed
        ( Msg.Ske_ecdhe { curve_id = Types.x25519_group_id; point = Crypto.X25519.public_bytes kp },
          X25519_secret kp )
  | Types.Dhe ->
      let group = env.Config.dh_group in
      let kp = Kex_cache.dhe_keypair cache ~now ~group t.rng in
      signed
        ( Msg.Ske_dhe
            {
              dh_p = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_p group);
              dh_g = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_g group);
              dh_ys = Crypto.Dh.public_bytes kp;
            },
          Dhe_secret kp )
  | Types.Ecdhe ->
      let kp = Kex_cache.ecdhe_keypair cache ~now ~curve:env.Config.ecdhe_curve t.rng in
      signed
        ( Msg.Ske_ecdhe { curve_id = env.Config.ecdhe_curve_id; point = Crypto.Ec.public_bytes kp },
          Ecdhe_secret kp )

(* Issue a NewSessionTicket for [session] under the current STEK. *)
let make_ticket t ~now (tc : Config.ticket_config) session =
  let stek = Stek_manager.issuing tc.Config.stek_manager ~now in
  Msg.New_session_ticket
    {
      nst_lifetime_hint = tc.Config.lifetime_hint;
      nst_ticket = Ticket.seal stek t.rng session;
    }

(* Attempt ticket resumption; returns the recovered session on success. *)
let try_ticket_resumption t ~now ~offered_suites exts =
  match (t.config.Config.tickets, Extension.find_session_ticket exts) with
  | Some tc, Some ticket when String.length ticket > 0 -> (
      let find_stek key_name =
        Stek_manager.find_for_decrypt tc.Config.stek_manager ~now key_name
      in
      match Ticket.unseal ~find_stek ticket with
      | Error _ -> None
      | Ok session ->
          let age = now - Session.established_at session in
          let suite_code = Types.suite_to_int (Session.cipher_suite session) in
          if age >= 0 && age <= tc.Config.accept_lifetime && List.mem suite_code offered_suites
          then Some (session, tc)
          else None)
  | _ -> None

let try_id_resumption t ~now ~offered_suites session_id =
  match t.config.Config.session_cache with
  | None -> None
  | Some cache when String.length session_id > 0 -> (
      match Session_cache.lookup cache ~now session_id with
      | Some session
        when List.mem (Types.suite_to_int (Session.cipher_suite session)) offered_suites ->
          Some session
      | Some _ | None -> None)
  | Some _ -> None

let fresh_session_id t = if t.config.Config.issue_session_ids then Crypto.Rng.generate t.rng 32 else ""

(* The abbreviated handshake's closing messages: the server Finished
   over everything so far, and the client Finished expected next. One
   keyed master secret serves both. *)
let resume transcript session first how =
  let master = Crypto.Prf.key_master (Session.master_secret session) in
  let server_fin =
    Msg.send transcript
      (Msg.Finished
         (Crypto.Prf.server_finished master ~handshake_hash:(Msg.transcript_hash transcript)))
  in
  let expected = Crypto.Prf.client_finished master ~handshake_hash:(Msg.transcript_hash transcript) in
  Ok (Resuming (first @ [ server_fin ], { r_session = session; r_expected_verify = expected }, how))

let handle_client_hello t ~now (hello : Msg.framed) =
  match hello.Msg.msg with
  | Msg.Client_hello ch -> (
      if ch.Msg.ch_version <> Types.TLS_1_2 then Error Types.Protocol_version
      else begin
        let offered = ch.Msg.ch_cipher_suites in
        let client_offers_ticket_ext = Extension.has_session_ticket ch.Msg.ch_extensions in
        let ticket_negotiated = client_offers_ticket_ext && t.config.Config.tickets <> None in
        let server_random = Crypto.Rng.generate t.rng Types.random_len in
        let transcript = Crypto.Sha256.init () in
        Msg.absorb transcript hello;
        (* 1. Ticket resumption takes precedence (RFC 5077 section 3.4). *)
        match try_ticket_resumption t ~now ~offered_suites:offered ch.Msg.ch_extensions with
        | Some (session, tc) ->
            let sh =
              Msg.send transcript
                (Msg.Server_hello
                   {
                     sh_version = Types.TLS_1_2;
                     sh_random = server_random;
                     (* Echo the client's offered ID if any, per RFC 5077. *)
                     sh_session_id = ch.Msg.ch_session_id;
                     sh_cipher_suite = Session.cipher_suite session;
                     sh_extensions = [ Extension.Session_ticket "" ];
                   })
            in
            let reissue =
              if tc.Config.reissue_on_resumption then
                [ Msg.send transcript (make_ticket t ~now tc session) ]
              else []
            in
            resume transcript session (sh :: reissue) `Via_ticket
        | None -> (
            (* 2. Session-ID resumption. *)
            match try_id_resumption t ~now ~offered_suites:offered ch.Msg.ch_session_id with
            | Some session ->
                let sh =
                  Msg.send transcript
                    (Msg.Server_hello
                       {
                         sh_version = Types.TLS_1_2;
                         sh_random = server_random;
                         sh_session_id = ch.Msg.ch_session_id;
                         sh_cipher_suite = Session.cipher_suite session;
                         sh_extensions =
                           (if ticket_negotiated then [ Extension.Session_ticket "" ] else []);
                       })
                in
                resume transcript session [ sh ] `Via_session_id
            | None -> (
                (* 3. Full handshake. *)
                match select_suite t offered with
                | None -> Error Types.Handshake_failure
                | Some suite ->
                    let session_id = fresh_session_id t in
                    let sh =
                      Msg.send transcript
                        (Msg.Server_hello
                           {
                             sh_version = Types.TLS_1_2;
                             sh_random = server_random;
                             sh_session_id = session_id;
                             sh_cipher_suite = suite;
                             sh_extensions =
                               (if ticket_negotiated then [ Extension.Session_ticket "" ] else []);
                           })
                    in
                    let cert_msg =
                      Msg.send transcript
                        (Msg.Certificate (List.map Cert.to_bytes t.config.Config.cert_chain))
                    in
                    let ske, kex =
                      make_server_key_exchange t ~now ~client_random:ch.Msg.ch_random
                        ~server_random ~client_exts:ch.Msg.ch_extensions suite
                    in
                    let ske = Option.map (Msg.send transcript) ske in
                    let done_msg = Msg.send transcript Msg.Server_hello_done in
                    Ok
                      (Negotiating
                         ( [ sh; cert_msg ] @ Option.to_list ske @ [ done_msg ],
                           {
                             p_server = t;
                             p_transcript = transcript;
                             p_client_random = ch.Msg.ch_random;
                             p_server_random = server_random;
                             p_suite = suite;
                             p_session_id = session_id;
                             p_ticket_negotiated = ticket_negotiated;
                             p_kex = kex;
                           } ))))
      end)
  | _ -> Error Types.Unexpected_message

(* Compute the premaster secret from the ClientKeyExchange payload. *)
let premaster_of_cke pending cke_public =
  let env = pending.p_server.config.Config.env in
  match pending.p_kex with
  | Dhe_secret kp ->
      Crypto.Dh.shared_secret kp ~peer_pub:(Crypto.Bignum.of_bytes_be cke_public)
  | Ecdhe_secret kp -> (
      match Crypto.Ec.point_of_bytes env.Config.ecdhe_curve cke_public with
      | Error e -> Error e
      | Ok peer -> Crypto.Ec.shared_secret kp ~peer_pub:peer)
  | X25519_secret kp ->
      if String.length cke_public <> Crypto.X25519.key_len then Error "x25519: bad public length"
      else Crypto.X25519.shared_secret kp ~peer_pub:cke_public
  | Static_secret -> (
      match Crypto.Ec.point_of_bytes env.Config.pki_curve cke_public with
      | Error e -> Error e
      | Ok peer -> Crypto.Ecdsa.ecdh pending.p_server.config.Config.cert_key ~peer_pub:peer)

(* Handle the client's [ClientKeyExchange; Finished] flight, completing a
   full handshake. Returns the server's closing flight and the freshly
   established session. *)
let handle_client_flight pending ~now (msgs : Msg.framed list) =
  match msgs with
  | [
   ({ msg = Msg.Client_key_exchange cke_public; _ } as cke);
   ({ msg = Msg.Finished client_verify; _ } as fin);
  ] -> (
      match premaster_of_cke pending cke_public with
      | Error _ -> Error Types.Illegal_parameter
      | Ok pre_master ->
          let t = pending.p_server in
          Msg.absorb pending.p_transcript cke;
          let master_secret =
            Crypto.Prf.master_secret ~pre_master ~client_random:pending.p_client_random
              ~server_random:pending.p_server_random
          in
          let master = Crypto.Prf.key_master master_secret in
          let expected =
            Crypto.Prf.client_finished master ~handshake_hash:(Msg.transcript_hash pending.p_transcript)
          in
          if not (Crypto.Hmac.equal_ct expected client_verify) then Error Types.Decrypt_error
          else begin
            Msg.absorb pending.p_transcript fin;
            let session =
              Session.make ~id:pending.p_session_id ~master_secret ~cipher_suite:pending.p_suite
                ~established_at:now
            in
            (* Cache for session-ID resumption. *)
            (match t.config.Config.session_cache with
            | Some cache when String.length pending.p_session_id > 0 ->
                Session_cache.store cache ~now session
            | Some _ | None -> ());
            (* Issue a ticket if negotiated. *)
            let nst =
              match (pending.p_ticket_negotiated, t.config.Config.tickets) with
              | true, Some tc -> Some (Msg.send pending.p_transcript (make_ticket t ~now tc session))
              | _ -> None
            in
            let server_fin =
              Msg.send pending.p_transcript
                (Msg.Finished
                   (Crypto.Prf.server_finished master
                      ~handshake_hash:(Msg.transcript_hash pending.p_transcript)))
            in
            Ok (Option.to_list nst @ [ server_fin ], session)
          end)
  | _ -> Error Types.Unexpected_message

(* Verify the client Finished that closes an abbreviated handshake. *)
let handle_client_finished resuming (msg : Msg.framed) =
  match msg.Msg.msg with
  | Msg.Finished verify ->
      if Crypto.Hmac.equal_ct resuming.r_expected_verify verify then Ok resuming.r_session
      else Error Types.Decrypt_error
  | _ -> Error Types.Unexpected_message
