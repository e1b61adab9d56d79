(* A TLS 1.3 resumption model (RFC 8446 / draft-ietf-tls-tls13-15
   semantics), built to make Section 2.4 of the paper executable: session
   IDs and tickets are nominally obsoleted, but the mechanisms persist as
   pre-shared keys, and the forward-secrecy story splits three ways:

   - "psk_ke": resumption without a new key exchange. Exactly like a
     1.2 ticket, the connection decrypts retroactively while the PSK (and
     the STEK sealing it) exists.
   - "psk_dhe_ke": the PSK only authenticates; a fresh (EC)DHE runs.
     Application data of the *resumed* connection stays forward secret
     even if the PSK later leaks.
   - 0-RTT early data: encrypted directly under the PSK in both modes, so
     it inherits the full PSK/STEK vulnerability window regardless.

   The key schedule is the real RFC 8446 one (HKDF-Extract/Expand-Label
   over SHA-256, including the binder), tickets are sealed under the same
   {!Stek} machinery as 1.2 tickets, and the attack functions reconstruct
   secrets exactly as a STEK-holding adversary would. The handshake
   itself is condensed to the resumption-relevant core: one ClientHello
   and one ServerHello carrying key shares, PSK offers and binders. *)

let hash_len = Crypto.Hkdf.hash_len
let zeros = String.make hash_len '\x00'

type psk_mode = Psk_ke | Psk_dhe_ke

(* --- The PSK state a ticket carries -------------------------------------------- *)

(* What the client stores next to the opaque ticket, and what the server
   recovers by unsealing it. *)
type psk_state = {
  psk : string; (* 32 bytes, derived from the resumption master secret *)
  issued_at : int;
  lifetime : int; (* seconds; draft-15 caps this at 7 days *)
  max_early_data : int;
}

let write_psk_state w s =
  Wire.Writer.vec8 w s.psk;
  Wire.Writer.u64 w s.issued_at;
  Wire.Writer.u32 w s.lifetime;
  Wire.Writer.u32 w s.max_early_data

let read_psk_state r =
  let psk = Wire.Reader.vec8 r in
  let issued_at = Wire.Reader.u64 r in
  let lifetime = Wire.Reader.u32 r in
  let max_early_data = Wire.Reader.u32 r in
  { psk; issued_at; lifetime; max_early_data }

(* Sealed in the 1.2 ticket envelope ({!Ticket.seal_plain}): the 1.3
   draft changed the protocol, not the operational practice the paper
   worries about. *)
let seal_psk stek rng state =
  Ticket.seal_plain stek rng (Wire.Writer.build (fun w -> write_psk_state w state))

let unseal_psk ~find_stek ticket =
  Ticket.unseal_plain ~find_stek ticket ~decode:(fun plain ->
      Wire.Reader.parse_result plain read_psk_state)
  |> Result.map_error (Format.asprintf "tls13: %a" Ticket.pp_unseal_error)

(* --- Key schedule (RFC 8446 section 7.1) ----------------------------------------- *)

type secrets = {
  early_secret : string;
  binder_key : string;
  client_early_traffic : string; (* protects 0-RTT data *)
  handshake_secret : string;
  master_secret : string;
  client_app_traffic : string;
  server_app_traffic : string;
  resumption_master : string;
}

let empty_hash = Crypto.Sha256.digest ""

(* The early stage, the one part of the schedule a PSK alone keys: the
   early secret and the binder key. *)
let early_schedule psk =
  let early_secret = Crypto.Hkdf.extract ~salt:zeros psk in
  ( early_secret,
    Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"res binder" ~transcript_hash:empty_hash )

(* Protects 0-RTT data: keyed from the PSK and the ClientHello alone. *)
let client_early_traffic ~early_secret ~ch_hash =
  Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"c e traffic" ~transcript_hash:ch_hash

(* [psk] and [dh_shared] default to zeros when absent, per the RFC. *)
let key_schedule ?(psk = zeros) ?(dh_shared = zeros) ~ch_hash ~full_hash () =
  let early_secret, binder_key = early_schedule psk in
  let derived1 =
    Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"derived" ~transcript_hash:empty_hash
  in
  let handshake_secret = Crypto.Hkdf.extract ~salt:derived1 dh_shared in
  let derived2 =
    Crypto.Hkdf.derive_secret ~secret:handshake_secret ~label:"derived" ~transcript_hash:empty_hash
  in
  let master_secret = Crypto.Hkdf.extract ~salt:derived2 zeros in
  {
    early_secret;
    binder_key;
    client_early_traffic = client_early_traffic ~early_secret ~ch_hash;
    handshake_secret;
    master_secret;
    client_app_traffic =
      Crypto.Hkdf.derive_secret ~secret:master_secret ~label:"c ap traffic" ~transcript_hash:full_hash;
    server_app_traffic =
      Crypto.Hkdf.derive_secret ~secret:master_secret ~label:"s ap traffic" ~transcript_hash:full_hash;
    resumption_master =
      Crypto.Hkdf.derive_secret ~secret:master_secret ~label:"res master" ~transcript_hash:full_hash;
  }

let psk_of_resumption_master ~resumption_master ~nonce =
  Crypto.Hkdf.expand_label ~secret:resumption_master ~label:"resumption" ~context:nonce hash_len

(* --- Traffic protection ------------------------------------------------------------ *)

(* AES-128-CTR + HMAC keyed from a traffic secret: a stand-in AEAD with
   the real key derivation (expand-label "key" / "iv"). *)
let traffic_keys traffic_secret =
  let expand label n = Crypto.Hkdf.expand_label ~secret:traffic_secret ~label ~context:"" n in
  (Crypto.Aes.of_key (expand "key" 16), expand "iv" 8, expand "mac" hash_len)

let protect ~traffic_secret data =
  let key, nonce, mac_key = traffic_keys traffic_secret in
  let ct = Crypto.Block_mode.ctr_encrypt key ~nonce data in
  ct ^ Crypto.Hmac.sha256 ~key:mac_key ct

let unprotect ~traffic_secret data =
  let n = String.length data in
  if n < hash_len then Error "tls13: protected record too short"
  else begin
    let ct = String.sub data 0 (n - hash_len) in
    let tag = String.sub data (n - hash_len) hash_len in
    let key, nonce, mac_key = traffic_keys traffic_secret in
    if not (Crypto.Hmac.verify ~key:mac_key ~msg:ct ~tag) then Error "tls13: bad record MAC"
    else Ok (Crypto.Block_mode.ctr_decrypt key ~nonce ct)
  end

(* --- Messages ------------------------------------------------------------------------ *)

type client_hello = {
  ch_random : string;
  ch_key_share : string option; (* ECDHE public point; absent in pure psk_ke *)
  ch_psk_identity : string option; (* the opaque ticket *)
  ch_psk_mode : psk_mode;
  ch_binder : string; (* "" when no PSK offered *)
  ch_early_data : string option; (* protected 0-RTT payload *)
}

type server_hello = {
  sh_random : string;
  sh_key_share : string option;
  sh_psk_accepted : bool;
  sh_new_ticket : (string * string) option; (* nonce, sealed ticket *)
}

(* Transcript bytes for hashing; the binder covers the CH *without* the
   binder itself (the RFC's truncated transcript). *)
let ch_bytes ?(with_binder = true) ch =
  Wire.Writer.build (fun w ->
      Wire.Writer.bytes w ch.ch_random;
      Wire.Writer.vec16 w (Option.value ch.ch_key_share ~default:"");
      Wire.Writer.vec16 w (Option.value ch.ch_psk_identity ~default:"");
      Wire.Writer.u8 w (match ch.ch_psk_mode with Psk_ke -> 0 | Psk_dhe_ke -> 1);
      if with_binder then Wire.Writer.vec8 w ch.ch_binder)

let ch_hash ch = Crypto.Sha256.digest (ch_bytes ch)

(* The ClientHello..ServerHello transcript; the ticket rides after it. *)
let full_hash ch sh =
  Crypto.Sha256.digest_list
    [
      ch_bytes ch;
      Wire.Writer.build (fun w ->
          Wire.Writer.bytes w sh.sh_random;
          Wire.Writer.vec16 w (Option.value sh.sh_key_share ~default:"");
          Wire.Writer.u8 w (if sh.sh_psk_accepted then 1 else 0));
    ]

let binder ~binder_key ch =
  Crypto.Hmac.sha256 ~key:binder_key (Crypto.Sha256.digest (ch_bytes ~with_binder:false ch))

type client_offer =
  | Fresh13
  | Resume13 of { ticket : string; state : psk_state; mode : psk_mode; early_data : string option }

(* The client's first flight for an offer: an ephemeral key share unless
   the offer is pure psk_ke, the random, then for a PSK offer the binder
   over the truncated hello and any 0-RTT data under the client early
   traffic secret. *)
let hello ~curve ~rng offer =
  let kp =
    match offer with
    | Resume13 { mode = Psk_ke; _ } -> None
    | Fresh13 | Resume13 _ -> Some (Crypto.Ec.gen_keypair curve rng)
  in
  let ch =
    {
      ch_random = Crypto.Rng.generate rng 32;
      ch_key_share = Option.map Crypto.Ec.public_bytes kp;
      ch_psk_identity = None;
      ch_psk_mode = Psk_dhe_ke;
      ch_binder = "";
      ch_early_data = None;
    }
  in
  match offer with
  | Fresh13 -> (ch, kp)
  | Resume13 { ticket; state; mode; early_data } ->
      let ch = { ch with ch_psk_identity = Some ticket; ch_psk_mode = mode } in
      let early_secret, binder_key = early_schedule state.psk in
      let ch = { ch with ch_binder = binder ~binder_key ch } in
      let protect_early plain =
        protect ~traffic_secret:(client_early_traffic ~early_secret ~ch_hash:(ch_hash ch)) plain
      in
      ({ ch with ch_early_data = Option.map protect_early early_data }, kp)

(* --- Server --------------------------------------------------------------------------- *)

type server_config = {
  curve : Crypto.Ec.curve;
  stek_manager : Stek_manager.t;
  psk_lifetime : int; (* draft-15: at most 7 days *)
  allowed_modes : psk_mode list;
  max_early_data : int; (* 0 = no 0-RTT *)
}

type server = { sc : server_config; srng : Crypto.Rng.t }

let server ~config ~rng = { sc = config; srng = rng }

type server_result = {
  sr_hello : server_hello;
  sr_secrets : secrets;
  sr_early_data : (string, string) result option;
      (* decrypted 0-RTT payload, if the client sent any and the PSK was
         accepted; None when no early data *)
  sr_resumed : bool;
}

let handle_client_hello server ~now (ch : client_hello) =
  let sc = server.sc in
  (* 1. PSK acceptance. *)
  let accepted_psk =
    match ch.ch_psk_identity with
    | None -> None
    | Some ticket -> (
        if not (List.mem ch.ch_psk_mode sc.allowed_modes) then None
        else
          let find_stek name = Stek_manager.find_for_decrypt sc.stek_manager ~now name in
          match unseal_psk ~find_stek ticket with
          | Error _ -> None
          | Ok state ->
              let age = now - state.issued_at in
              if age < 0 || age > min state.lifetime sc.psk_lifetime then None
              else
                (* Verify the binder before accepting. *)
                let _, binder_key = early_schedule state.psk in
                if Crypto.Hmac.equal_ct ch.ch_binder (binder ~binder_key ch) then Some state
                else None)
  in
  (* 2. Key exchange, per mode. *)
  let needs_dh =
    match (accepted_psk, ch.ch_psk_mode) with
    | Some _, Psk_ke -> false
    | Some _, Psk_dhe_ke | None, _ -> true
  in
  let dh_result =
    if not needs_dh then Ok (None, None)
    else
      match ch.ch_key_share with
      | None -> Error "tls13: key share required"
      | Some share -> (
          match Crypto.Ec.point_of_bytes sc.curve share with
          | Error e -> Error e
          | Ok peer -> (
              let kp = Crypto.Ec.gen_keypair sc.curve server.srng in
              match Crypto.Ec.shared_secret kp ~peer_pub:peer with
              | Error e -> Error e
              | Ok z -> Ok (Some (Crypto.Ec.public_bytes kp), Some z)))
  in
  match dh_result with
  | Error e -> Error e
  | Ok (server_share, dh_shared) when accepted_psk <> None || dh_shared <> None ->
      let psk = Option.map (fun s -> s.psk) accepted_psk in
      let sh0 =
        {
          sh_random = Crypto.Rng.generate server.srng 32;
          sh_key_share = server_share;
          sh_psk_accepted = accepted_psk <> None;
          sh_new_ticket = None;
        }
      in
      let secrets =
        key_schedule ?psk ?dh_shared ~ch_hash:(ch_hash ch) ~full_hash:(full_hash ch sh0) ()
      in
      (* 3. 0-RTT: only valid when the PSK was accepted and allowed. *)
      let early =
        match (ch.ch_early_data, accepted_psk) with
        | None, _ -> None
        | Some _, None -> Some (Error "tls13: early data rejected (no PSK)")
        | Some _, Some state when state.max_early_data = 0 ->
            Some (Error "tls13: early data rejected (not permitted)")
        | Some data, Some _ ->
            Some (unprotect ~traffic_secret:secrets.client_early_traffic data)
      in
      (* 4. Issue a fresh ticket for the *next* resumption. *)
      let nonce = Crypto.Rng.generate server.srng 8 in
      let new_psk = psk_of_resumption_master ~resumption_master:secrets.resumption_master ~nonce in
      let new_state =
        {
          psk = new_psk;
          issued_at = now;
          lifetime = sc.psk_lifetime;
          max_early_data = sc.max_early_data;
        }
      in
      let ticket = seal_psk (Stek_manager.issuing sc.stek_manager ~now) server.srng new_state in
      Ok
        {
          sr_hello = { sh0 with sh_new_ticket = Some (nonce, ticket) };
          sr_secrets = secrets;
          sr_early_data = early;
          sr_resumed = accepted_psk <> None;
        }
  | Ok _ -> Error "tls13: nothing to key the connection with"

(* --- Client --------------------------------------------------------------------------- *)

type client_result = {
  cl_secrets : secrets;
  cl_resumed : bool;
  cl_new_ticket : (string * psk_state) option; (* sealed ticket + client copy *)
}

(* Run one connection against a server — the condensed two-flight
   exchange. Returns both ends' views so tests can compare. *)
let connect ~client_rng server ~now ~offer =
  let sc = server.sc in
  let ch, kp = hello ~curve:sc.curve ~rng:client_rng offer in
  match handle_client_hello server ~now ch with
  | Error e -> Error e
  | Ok sr -> (
      (* Client-side key schedule must agree. *)
      let dh_shared =
        match (kp, sr.sr_hello.sh_key_share) with
        | Some kp, Some share -> (
            match Crypto.Ec.point_of_bytes sc.curve share with
            | Error _ -> None
            | Ok peer -> Result.to_option (Crypto.Ec.shared_secret kp ~peer_pub:peer))
        | _ -> None
      in
      let psk =
        match offer with
        | Resume13 { state; _ } when sr.sr_hello.sh_psk_accepted -> Some state.psk
        | Fresh13 | Resume13 _ -> None
      in
      let cl_secrets =
        key_schedule ?psk ?dh_shared ~ch_hash:(ch_hash ch) ~full_hash:(full_hash ch sr.sr_hello) ()
      in
      if not (String.equal cl_secrets.master_secret sr.sr_secrets.master_secret) then
        Error "tls13: key schedule mismatch"
      else
        let cl_new_ticket =
          Option.map
            (fun (nonce, ticket) ->
              ( ticket,
                {
                  psk =
                    psk_of_resumption_master ~resumption_master:cl_secrets.resumption_master ~nonce;
                  issued_at = now;
                  lifetime = sc.psk_lifetime;
                  max_early_data = sc.max_early_data;
                } ))
            sr.sr_hello.sh_new_ticket
        in
        Ok (sr, { cl_secrets; cl_resumed = sr.sr_resumed; cl_new_ticket }))

(* --- The attacker's view (Section 2.4 meets Section 6.1) ---------------------------- *)

(* Given a recorded exchange (CH/SH bytes are public; protected data is
   recorded) and a stolen STEK, reconstruct what decrypts:

   - the 0-RTT early data always falls (it is keyed from the PSK alone);
   - with [Psk_ke], the whole connection falls (no DH entered the
     schedule);
   - with [Psk_dhe_ke], application data survives: the attacker lacks
     the ephemeral DH output. *)
type attack_outcome = {
  early_data : (string, string) result option;
  app_data : (string, string) result;
}

let attack ~find_stek ~(ch : client_hello) ~(sh : server_hello) ~recorded_app =
  match ch.ch_psk_identity with
  | None -> { early_data = None; app_data = Error "no PSK in this connection" }
  | Some ticket -> (
      match unseal_psk ~find_stek ticket with
      | Error e -> { early_data = None; app_data = Error e }
      | Ok state ->
          let ch_hash = ch_hash ch in
          let early_data =
            Option.map
              (fun protected_early ->
                let early_secret, _ = early_schedule state.psk in
                unprotect ~traffic_secret:(client_early_traffic ~early_secret ~ch_hash) protected_early)
              ch.ch_early_data
          in
          let app_data =
            match ch.ch_psk_mode with
            | Psk_dhe_ke -> Error "psk_dhe_ke: fresh DH protects the resumed connection"
            | Psk_ke ->
                let secrets = key_schedule ~psk:state.psk ~ch_hash ~full_hash:(full_hash ch sh) () in
                unprotect ~traffic_secret:secrets.client_app_traffic recorded_app
          in
          { early_data; app_data })
