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

(* Seal under the STEK with the same CBC+HMAC construction as 1.2
   tickets: the 1.3 draft changed the protocol, not the operational
   practice the paper worries about. *)
let seal_psk stek rng state =
  let iv = Crypto.Rng.generate rng 16 in
  let plain = Wire.Writer.build (fun w -> write_psk_state w state) in
  let encrypted = Crypto.Block_mode.cbc_encrypt (Stek.aes_key stek) ~iv plain in
  let body =
    Wire.Writer.build (fun w ->
        Wire.Writer.bytes w (Stek.key_name stek);
        Wire.Writer.bytes w iv;
        Wire.Writer.vec16 w encrypted)
  in
  body ^ Crypto.Hmac.mac (Stek.mac stek) body

let unseal_psk ~find_stek ticket =
  let n = String.length ticket in
  if n < Stek.key_name_len + 16 + 2 + 32 then Error "tls13: ticket too short"
  else begin
    let key_name = String.sub ticket 0 Stek.key_name_len in
    match find_stek key_name with
    | None -> Error "tls13: unknown STEK"
    | Some stek ->
        let body = String.sub ticket 0 (n - 32) in
        let mac = String.sub ticket (n - 32) 32 in
        if not (Crypto.Hmac.equal_ct (Crypto.Hmac.mac (Stek.mac stek) body) mac) then
          Error "tls13: bad ticket MAC"
        else begin
          let parse r =
            let _name = Wire.Reader.take r Stek.key_name_len in
            let iv = Wire.Reader.take r 16 in
            let encrypted = Wire.Reader.vec16 r in
            (iv, encrypted)
          in
          match Wire.Reader.parse_result body parse with
          | Error e -> Error e
          | Ok (iv, encrypted) -> (
              match Crypto.Block_mode.cbc_decrypt (Stek.aes_key stek) ~iv encrypted with
              | Error e -> Error e
              | Ok plain -> Wire.Reader.parse_result plain read_psk_state)
        end
  end

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

(* [psk] and [dh_shared] default to zeros when absent, per the RFC. *)
let key_schedule ?(psk = zeros) ?(dh_shared = zeros) ~ch_hash ~full_hash () =
  let early_secret = Crypto.Hkdf.extract ~salt:zeros psk in
  let binder_key =
    Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"res binder" ~transcript_hash:empty_hash
  in
  let client_early_traffic =
    Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"c e traffic" ~transcript_hash:ch_hash
  in
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
    client_early_traffic;
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
let protect ~traffic_secret data =
  let key =
    Crypto.Aes.of_key (Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"key" ~context:"" 16)
  in
  let nonce = Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"iv" ~context:"" 8 in
  let mac_key = Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"mac" ~context:"" 32 in
  let ct = Crypto.Block_mode.ctr_encrypt key ~nonce data in
  ct ^ Crypto.Hmac.sha256 ~key:mac_key ct

let unprotect ~traffic_secret data =
  let n = String.length data in
  if n < 32 then Error "tls13: protected record too short"
  else begin
    let ct = String.sub data 0 (n - 32) in
    let tag = String.sub data (n - 32) 32 in
    let key =
      Crypto.Aes.of_key (Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"key" ~context:"" 16)
    in
    let nonce = Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"iv" ~context:"" 8 in
    let mac_key = Crypto.Hkdf.expand_label ~secret:traffic_secret ~label:"mac" ~context:"" 32 in
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

let sh_bytes sh =
  Wire.Writer.build (fun w ->
      Wire.Writer.bytes w sh.sh_random;
      Wire.Writer.vec16 w (Option.value sh.sh_key_share ~default:"");
      Wire.Writer.u8 w (if sh.sh_psk_accepted then 1 else 0))

let binder_for ~binder_key ~truncated_ch_hash = Crypto.Hmac.sha256 ~key:binder_key truncated_ch_hash

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
  let truncated_hash = Crypto.Sha256.digest (ch_bytes ~with_binder:false ch) in
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
              else begin
                (* Verify the binder before accepting. *)
                let early = Crypto.Hkdf.extract ~salt:zeros state.psk in
                let binder_key =
                  Crypto.Hkdf.derive_secret ~secret:early ~label:"res binder"
                    ~transcript_hash:empty_hash
                in
                if
                  Crypto.Hmac.equal_ct ch.ch_binder
                    (binder_for ~binder_key ~truncated_ch_hash:truncated_hash)
                then Some state
                else None
              end)
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
      let ch_hash = Crypto.Sha256.digest (ch_bytes ch) in
      let sh0 =
        {
          sh_random = Crypto.Rng.generate server.srng 32;
          sh_key_share = server_share;
          sh_psk_accepted = accepted_psk <> None;
          sh_new_ticket = None;
        }
      in
      let full_hash = Crypto.Sha256.digest_list [ ch_bytes ch; sh_bytes sh0 ] in
      let secrets = key_schedule ?psk ?dh_shared ~ch_hash ~full_hash () in
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

type client_offer =
  | Fresh13
  | Resume13 of { ticket : string; state : psk_state; mode : psk_mode; early_data : string option }

type client_result = {
  cl_secrets : secrets;
  cl_resumed : bool;
  cl_new_ticket : (string * psk_state) option; (* sealed ticket + client copy *)
}

(* Run one connection against a server — the condensed two-flight
   exchange. Returns both ends' views so tests can compare. *)
let connect ~client_rng server ~now ~offer =
  let sc = server.sc in
  let kp =
    match offer with
    | Resume13 { mode = Psk_ke; _ } -> None
    | Fresh13 | Resume13 _ -> Some (Crypto.Ec.gen_keypair sc.curve client_rng)
  in
  let psk_identity, psk_state, mode, early_plain =
    match offer with
    | Fresh13 -> (None, None, Psk_dhe_ke, None)
    | Resume13 { ticket; state; mode; early_data } -> (Some ticket, Some state, mode, early_data)
  in
  let ch0 =
    {
      ch_random = Crypto.Rng.generate client_rng 32;
      ch_key_share = Option.map Crypto.Ec.public_bytes kp;
      ch_psk_identity = psk_identity;
      ch_psk_mode = mode;
      ch_binder = "";
      ch_early_data = None;
    }
  in
  (* Binder over the truncated CH. *)
  let ch1 =
    match psk_state with
    | None -> ch0
    | Some state ->
        let early = Crypto.Hkdf.extract ~salt:zeros state.psk in
        let binder_key =
          Crypto.Hkdf.derive_secret ~secret:early ~label:"res binder" ~transcript_hash:empty_hash
        in
        let truncated = Crypto.Sha256.digest (ch_bytes ~with_binder:false ch0) in
        { ch0 with ch_binder = binder_for ~binder_key ~truncated_ch_hash:truncated }
  in
  (* 0-RTT data under the client early traffic secret. *)
  let ch2 =
    match (early_plain, psk_state) with
    | Some plain, Some state ->
        let ch_hash = Crypto.Sha256.digest (ch_bytes ch1) in
        let early_secret = Crypto.Hkdf.extract ~salt:zeros state.psk in
        let cet =
          Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"c e traffic"
            ~transcript_hash:ch_hash
        in
        { ch1 with ch_early_data = Some (protect ~traffic_secret:cet plain) }
    | _ -> ch1
  in
  match handle_client_hello server ~now ch2 with
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
      let psk = if sr.sr_hello.sh_psk_accepted then Option.map (fun s -> s.psk) psk_state else None in
      let ch_hash = Crypto.Sha256.digest (ch_bytes ch2) in
      let full_hash =
        Crypto.Sha256.digest_list [ ch_bytes ch2; sh_bytes { sr.sr_hello with sh_new_ticket = None } ]
      in
      let cl_secrets = key_schedule ?psk ?dh_shared ~ch_hash ~full_hash () in
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
          let ch_hash = Crypto.Sha256.digest (ch_bytes ch) in
          let full_hash =
            Crypto.Sha256.digest_list [ ch_bytes ch; sh_bytes { sh with sh_new_ticket = None } ]
          in
          let early_data =
            Option.map
              (fun protected_early ->
                let early_secret = Crypto.Hkdf.extract ~salt:zeros state.psk in
                let cet =
                  Crypto.Hkdf.derive_secret ~secret:early_secret ~label:"c e traffic"
                    ~transcript_hash:ch_hash
                in
                unprotect ~traffic_secret:cet protected_early)
              ch.ch_early_data
          in
          let app_data =
            match ch.ch_psk_mode with
            | Psk_dhe_ke -> Error "psk_dhe_ke: fresh DH protects the resumed connection"
            | Psk_ke ->
                let secrets = key_schedule ~psk:state.psk ~ch_hash ~full_hash () in
                unprotect ~traffic_secret:secrets.client_app_traffic recorded_app
          in
          { early_data; app_data })
