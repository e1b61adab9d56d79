(* The client half of the handshake engine — in this project usually the
   *scanner*, so beyond completing handshakes it exposes everything the
   measurements need: the session ID the server assigned, the ticket and
   its STEK key name, the server's key-exchange public value, and the
   certificate chain with its trust evaluation. *)

module Msg = Handshake_msg

type t = { config : Config.client_config; rng : Crypto.Rng.t; groups : int list }

(* The supported_groups ranking is fixed per client, so every hello
   shares one list. *)
let create ?(prefer_x25519 = false) ~config ~rng () =
  let env_id = config.Config.cl_env.Config.ecdhe_curve_id in
  let groups =
    if prefer_x25519 then [ Types.x25519_group_id; env_id ] else [ env_id; Types.x25519_group_id ]
  in
  { config; rng; groups }

(* What the client offers for resumption. Ticket offers carry the cached
   session state (master secret) the client kept alongside the opaque
   ticket, as RFC 5077 requires. *)
type offer =
  | Fresh
  | Offer_session_id of Session.t
  | Offer_ticket of { ticket : string; session : Session.t }

type state = {
  s_client : t;
  s_transcript : Crypto.Sha256.t;
  s_hostname : string;
  s_random : string;
  s_offer : offer;
  s_now : int;
}

let hello t ~now ~hostname ~offer =
  let random = Crypto.Rng.generate t.rng Types.random_len in
  let session_id = match offer with Offer_session_id s -> Session.id s | _ -> "" in
  let ticket_ext =
    if not t.config.Config.offer_ticket then []
    else
      match offer with
      | Offer_ticket { ticket; _ } -> [ Extension.Session_ticket ticket ]
      | Fresh | Offer_session_id _ -> [ Extension.Session_ticket "" ]
  in
  let transcript = Crypto.Sha256.init () in
  let ch =
    Msg.send transcript
      (Msg.Client_hello
         {
           ch_version = Types.TLS_1_2;
           ch_random = random;
           ch_session_id = session_id;
           ch_cipher_suites = List.map Types.suite_to_int t.config.Config.offer_suites;
           ch_extensions =
             Extension.Server_name hostname :: Extension.Supported_groups t.groups :: ticket_ext;
         })
  in
  ( ch,
    {
      s_client = t;
      s_transcript = transcript;
      s_hostname = hostname;
      s_random = random;
      s_offer = offer;
      s_now = now;
    } )

(* --- Server flight processing ------------------------------------------------ *)

type full_continuation = {
  f_state : state;
  f_master_secret : string;
  f_master : Crypto.Prf.master;
  f_suite : Types.cipher_suite;
  f_session_id : string;
}

(* The result of processing the server's first flight. For an abbreviated
   handshake the connection is essentially done (the caller forwards our
   Finished); for a full handshake the caller must forward
   [CKE; Finished] and then hand us the server's closing flight. *)
type flight_result =
  | Abbreviated of {
      client_finished : Msg.framed;
      session : Session.t;
      new_ticket : (int * string) option; (* lifetime hint, ticket *)
      session_id : string;
    }
  | Continue_full of {
      to_send : Msg.framed list;
      continuation : full_continuation;
      cert_chain : Cert.t list;
      trust : (Cert.t, Cert.validation_error) result;
      server_kex_public : string option;
      session_id : string;
    }

let verify_ske_signature t ~leaf ~client_random ~server_random (ske : Msg.server_key_exchange) =
  let env = t.config.Config.cl_env in
  let params_bytes = Server.ske_params_bytes ske.Msg.ske_params in
  let msg = client_random ^ server_random ^ params_bytes in
  match Crypto.Ec.point_of_bytes env.Config.pki_curve (Cert.public_key leaf) with
  | Error _ -> false
  | Ok pub -> (
      match Crypto.Ecdsa.signature_of_bytes env.Config.pki_curve ske.Msg.ske_signature with
      | Error _ -> false
      | Ok sg -> Crypto.Ecdsa.verify ~curve:env.Config.pki_curve ~pub ~msg sg)

(* Peer-supplied DH moduli are untrusted: an even or tiny p blows up the
   Montgomery setup, and a 65535-byte p turns one pow_mod into a
   shard-stalling time bomb. Real TLS stacks cap accepted moduli (e.g.
   OpenSSL's 10000-bit limit); we accept 16..4096 bits. *)
let max_peer_dh_bits = 4096
let min_peer_dh_bits = 16

(* Build a DH group from ServerKeyExchange parameters, reusing the cached
   environment group when the parameters match (the common case). *)
let group_of_ske_params t ~dh_p ~dh_g =
  let env_group = t.config.Config.cl_env.Config.dh_group in
  let p = Crypto.Bignum.of_bytes_be dh_p and g = Crypto.Bignum.of_bytes_be dh_g in
  if
    Crypto.Bignum.equal p (Crypto.Dh.group_p env_group)
    && Crypto.Bignum.equal g (Crypto.Dh.group_g env_group)
  then Ok env_group
  else begin
    let p_bits = Crypto.Bignum.num_bits p in
    if p_bits < min_peer_dh_bits || p_bits > max_peer_dh_bits then
      Error "dhe: peer modulus size out of bounds"
    else if Crypto.Bignum.is_even p then Error "dhe: peer modulus is even"
    else if
      Crypto.Bignum.compare g Crypto.Bignum.one <= 0 || Crypto.Bignum.compare g p >= 0
    then Error "dhe: peer generator out of range"
    else
      Ok
        (Crypto.Dh.make_group ~p ~g ~q_bits:(min (p_bits - 2) 256))
  end

(* Key exchange from the client side; returns the CKE public value, the
   premaster secret, and the server's public value (for reuse tracking). *)
let client_kex state ~leaf ~suite ~ske =
  let t = state.s_client in
  let env = t.config.Config.cl_env in
  match (Types.suite_kex suite, ske) with
  | Types.Dhe, Some Msg.{ ske_params = Ske_dhe { dh_p; dh_g; dh_ys }; _ } -> (
      match group_of_ske_params t ~dh_p ~dh_g with
      | Error e -> Error e
      | Ok group -> (
          let kp = Crypto.Dh.gen_keypair group t.rng in
          match Crypto.Dh.shared_secret kp ~peer_pub:(Crypto.Bignum.of_bytes_be dh_ys) with
          | Error e -> Error e
          | Ok z -> Ok (Crypto.Dh.public_bytes kp, z, Some dh_ys)))
  | Types.Ecdhe, Some Msg.{ ske_params = Ske_ecdhe { curve_id; point }; _ }
    when curve_id = Types.x25519_group_id ->
      if String.length point <> Crypto.X25519.key_len then Error "x25519: bad server share"
      else begin
        let kp = Crypto.X25519.gen_keypair t.rng in
        match Crypto.X25519.shared_secret kp ~peer_pub:point with
        | Error e -> Error e
        | Ok z -> Ok (Crypto.X25519.public_bytes kp, z, Some point)
      end
  | Types.Ecdhe, Some Msg.{ ske_params = Ske_ecdhe { curve_id; point }; _ } ->
      if curve_id <> env.Config.ecdhe_curve_id then Error "ecdhe: unknown named curve"
      else begin
        match Crypto.Ec.point_of_bytes env.Config.ecdhe_curve point with
        | Error e -> Error e
        | Ok peer -> (
            let kp = Crypto.Ec.gen_keypair env.Config.ecdhe_curve t.rng in
            match Crypto.Ec.shared_secret kp ~peer_pub:peer with
            | Error e -> Error e
            | Ok z -> Ok (Crypto.Ec.public_bytes kp, z, Some point))
      end
  | Types.Static_ecdh, None -> (
      match Crypto.Ec.point_of_bytes env.Config.pki_curve (Cert.public_key leaf) with
      | Error e -> Error e
      | Ok peer -> (
          let kp = Crypto.Ec.gen_keypair env.Config.pki_curve t.rng in
          match Crypto.Ec.shared_secret kp ~peer_pub:peer with
          | Error e -> Error e
          | Ok z -> Ok (Crypto.Ec.public_bytes kp, z, None)))
  | _ -> Error "key exchange / flight mismatch"

let decode_certs chain_bytes =
  List.fold_right
    (fun bytes acc ->
      match (acc, Cert.of_bytes bytes) with
      | Error e, _ -> Error e
      | Ok certs, Ok c -> Ok (c :: certs)
      | Ok _, Error e -> Error e)
    chain_bytes (Ok [])

let offered_session state =
  match state.s_offer with
  | Offer_session_id s -> Some s
  | Offer_ticket { session; _ } -> Some session
  | Fresh -> None

(* The server's closing messages end both handshakes: [(NewSessionTicket);
   Finished]. Any other shape is [Error malformed]; a well-formed flight
   is then refused with [mismatch] if one is given, else absorbed, its
   server Finished checked against the transcript of everything before
   it. Returns the ticket, if any (lifetime hint, bytes). *)
let closing_flight transcript master ~malformed ~mismatch (msgs : Msg.framed list) =
  match msgs with
  | [ { msg = Msg.New_session_ticket _; _ }; ({ msg = Msg.Finished server_verify; _ } as fin) ]
  | [ ({ msg = Msg.Finished server_verify; _ } as fin) ] -> (
      match mismatch with
      | Some e -> Error e
      | None ->
          let ticket =
            match msgs with
            | ({ msg = Msg.New_session_ticket n; _ } as nst) :: _ ->
                Msg.absorb transcript nst;
                Some (n.Msg.nst_lifetime_hint, n.Msg.nst_ticket)
            | _ -> None
          in
          let expected =
            Crypto.Prf.server_finished master ~handshake_hash:(Msg.transcript_hash transcript)
          in
          if not (Crypto.Hmac.equal_ct expected server_verify) then
            Error "server Finished verification failed"
          else begin
            Msg.absorb transcript fin;
            Ok ticket
          end)
  | _ -> Error malformed

(* An abbreviated first flight: [SH] then the closing messages. *)
let handle_abbreviated state sh_msg (sh : Msg.server_hello) rest =
  match offered_session state with
  | None -> Error "server resumed a session we did not offer"
  | Some session -> (
      let transcript = state.s_transcript in
      let master = Crypto.Prf.key_master (Session.master_secret session) in
      let mismatch =
        if sh.Msg.sh_cipher_suite <> Session.cipher_suite session then
          Some "resumption changed cipher suite"
        else None
      in
      Msg.absorb transcript sh_msg;
      match closing_flight transcript master ~malformed:"malformed abbreviated flight" ~mismatch rest with
      | Error e -> Error e
      | Ok new_ticket ->
          let client_fin =
            Msg.frame
              (Msg.Finished
                 (Crypto.Prf.client_finished master ~handshake_hash:(Msg.transcript_hash transcript)))
          in
          Ok
            (Abbreviated
               { client_finished = client_fin; session; new_ticket; session_id = sh.Msg.sh_session_id }))

let handle_full state sh_msg (sh : Msg.server_hello) rest =
  let t = state.s_client in
  let cert_bytes, ske, rest_ok =
    match List.map (fun m -> m.Msg.msg) rest with
    | [ Msg.Certificate chain; Msg.Server_key_exchange ske; Msg.Server_hello_done ] ->
        (chain, Some ske, true)
    | [ Msg.Certificate chain; Msg.Server_hello_done ] -> (chain, None, true)
    | _ -> ([], None, false)
  in
  if not rest_ok then Error "malformed full-handshake flight"
  else begin
    match decode_certs cert_bytes with
    | Error e -> Error ("bad certificate encoding: " ^ e)
    | Ok chain -> (
        match chain with
        | [] -> Error "empty certificate chain"
        | leaf :: _ ->
            let env = t.config.Config.cl_env in
            let trust =
              if t.config.Config.evaluate_trust then
                Cert.validate ~curve:env.Config.pki_curve ~store:t.config.Config.root_store
                  ~now:state.s_now ~hostname:state.s_hostname chain
              else Error Cert.Not_evaluated
            in
            if t.config.Config.check_certs && Result.is_error trust then
              Error "untrusted certificate"
            else begin
              let sig_ok =
                (not t.config.Config.verify_ske)
                ||
                match ske with
                | None -> true
                | Some ske ->
                    verify_ske_signature t ~leaf ~client_random:state.s_random
                      ~server_random:sh.Msg.sh_random ske
              in
              if not sig_ok then Error "ServerKeyExchange signature invalid"
              else begin
                match client_kex state ~leaf ~suite:sh.Msg.sh_cipher_suite ~ske with
                | Error e -> Error e
                | Ok (cke_public, pre_master, server_kex_public) ->
                    let transcript = state.s_transcript in
                    Msg.absorb transcript sh_msg;
                    List.iter (Msg.absorb transcript) rest;
                    let cke = Msg.send transcript (Msg.Client_key_exchange cke_public) in
                    let master_secret =
                      Crypto.Prf.master_secret ~pre_master ~client_random:state.s_random
                        ~server_random:sh.Msg.sh_random
                    in
                    let master = Crypto.Prf.key_master master_secret in
                    let fin =
                      Msg.send transcript
                        (Msg.Finished
                           (Crypto.Prf.client_finished master
                              ~handshake_hash:(Msg.transcript_hash transcript)))
                    in
                    Ok
                      (Continue_full
                         {
                           to_send = [ cke; fin ];
                           continuation =
                             {
                               f_state = state;
                               f_master_secret = master_secret;
                               f_master = master;
                               f_suite = sh.Msg.sh_cipher_suite;
                               f_session_id = sh.Msg.sh_session_id;
                             };
                           cert_chain = chain;
                           trust;
                           server_kex_public;
                           session_id = sh.Msg.sh_session_id;
                         })
              end
            end)
  end

let handle_server_flight state (msgs : Msg.framed list) =
  match msgs with
  | ({ msg = Msg.Server_hello sh; _ } as sh_msg) :: rest -> (
      let t = state.s_client in
      if sh.Msg.sh_version <> Types.TLS_1_2 then Error "bad server version"
      else if
        not
          (List.mem (Types.suite_to_int sh.Msg.sh_cipher_suite)
             (List.map Types.suite_to_int t.config.Config.offer_suites))
      then Error "server chose a suite we did not offer"
      else begin
        (* Resumption detection: the server echoes our non-empty session ID,
           or jumps straight to Finished (ticket resumption). *)
        let offered_id =
          match state.s_offer with Offer_session_id s -> Session.id s | _ -> ""
        in
        let is_abbreviated =
          (offered_id <> "" && String.equal sh.Msg.sh_session_id offered_id)
          || List.exists (function { Msg.msg = Msg.Finished _; _ } -> true | _ -> false) rest
        in
        if is_abbreviated then handle_abbreviated state sh_msg sh rest
        else handle_full state sh_msg sh rest
      end)
  | _ -> Error "flight does not start with ServerHello"

(* Process the server's closing flight of a full handshake. Returns the
   established session plus any ticket. *)
let finish_full (cont : full_continuation) ~now (msgs : Msg.framed list) =
  match
    closing_flight cont.f_state.s_transcript cont.f_master ~malformed:"malformed server closing flight"
      ~mismatch:None msgs
  with
  | Error e -> Error e
  | Ok ticket ->
      let session =
        Session.make ~id:cont.f_session_id ~master_secret:cont.f_master_secret ~cipher_suite:cont.f_suite
          ~established_at:now
      in
      Ok (session, ticket)
