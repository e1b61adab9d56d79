(** A TLS 1.3 resumption model (RFC 8446 semantics; the paper's
    section 2.4): PSKs sealed under the same STEK machinery as 1.2
    tickets, [psk_ke] vs [psk_dhe_ke] modes, 0-RTT early data, and the
    attack split they imply. The key schedule is the real RFC 8446 one
    (HKDF, binders, traffic secrets); the handshake is condensed to the
    resumption-relevant core. *)

type psk_mode = Psk_ke | Psk_dhe_ke

(** {2 PSK state and tickets} *)

type psk_state = {
  psk : string;
  issued_at : int;
  lifetime : int;  (** draft-15 caps this at 7 days *)
  max_early_data : int;
}

val seal_psk : Stek.t -> Crypto.Rng.t -> psk_state -> string
(** The 1.2 ticket envelope ({!Ticket.seal_plain}) around the state's
    bytes. *)

val unseal_psk : find_stek:(string -> Stek.t option) -> string -> (psk_state, string) result
(** {!Ticket.unseal_plain} with the PSK state codec; the error is the
    rendered {!Ticket.unseal_error}. *)

(** {2 Key schedule} *)

type secrets = {
  early_secret : string;
  binder_key : string;
  client_early_traffic : string;
  handshake_secret : string;
  master_secret : string;
  client_app_traffic : string;
  server_app_traffic : string;
  resumption_master : string;
}

val key_schedule :
  ?psk:string -> ?dh_shared:string -> ch_hash:string -> full_hash:string -> unit -> secrets
(** RFC 8446 section 7.1 from the PSK and the (EC)DHE output, each the
    all-zero string when absent; [ch_hash] is the ClientHello's
    transcript hash and [full_hash] the ClientHello..ServerHello one. *)

val protect : traffic_secret:string -> string -> string
(** Traffic protection with keys expanded from the secret (a stand-in
    AEAD: AES-128-CTR + HMAC with the real "key"/"iv" derivations). *)

(** {2 Messages} *)

type client_hello = {
  ch_random : string;
  ch_key_share : string option;
  ch_psk_identity : string option;  (** the opaque ticket *)
  ch_psk_mode : psk_mode;
  ch_binder : string;
  ch_early_data : string option;  (** protected 0-RTT payload *)
}

type server_hello = {
  sh_random : string;
  sh_key_share : string option;
  sh_psk_accepted : bool;
  sh_new_ticket : (string * string) option;  (** nonce, sealed ticket *)
}

type client_offer =
  | Fresh13
  | Resume13 of { ticket : string; state : psk_state; mode : psk_mode; early_data : string option }

val hello :
  curve:Crypto.Ec.curve -> rng:Crypto.Rng.t -> client_offer -> client_hello * Crypto.Ec.keypair option
(** The ClientHello for an offer, as {!connect} sends it: an ephemeral
    key share (none for a [Psk_ke] resumption) drawn before the random;
    for a resumption, the binder over the truncated hello and any early
    data protected under the client early-traffic secret. The key pair
    is returned for the client's side of the exchange. *)

(** {2 Server} *)

type server_config = {
  curve : Crypto.Ec.curve;
  stek_manager : Stek_manager.t;
  psk_lifetime : int;
  allowed_modes : psk_mode list;
  max_early_data : int;
}

type server = { sc : server_config; srng : Crypto.Rng.t }

val server : config:server_config -> rng:Crypto.Rng.t -> server

type server_result = {
  sr_hello : server_hello;
  sr_secrets : secrets;
  sr_early_data : (string, string) result option;
  sr_resumed : bool;
}

val handle_client_hello : server -> now:int -> client_hello -> (server_result, string) result

(** {2 Client / driver} *)

type client_result = {
  cl_secrets : secrets;
  cl_resumed : bool;
  cl_new_ticket : (string * psk_state) option;
}

val connect :
  client_rng:Crypto.Rng.t ->
  server ->
  now:int ->
  offer:client_offer ->
  (server_result * client_result, string) result
(** One condensed exchange; both ends' views are returned (and checked
    to agree on the master secret). *)

(** {2 The attacker's view} *)

type attack_outcome = {
  early_data : (string, string) result option;
  app_data : (string, string) result;
}

val attack :
  find_stek:(string -> Stek.t option) ->
  ch:client_hello ->
  sh:server_hello ->
  recorded_app:string ->
  attack_outcome
(** Given recorded wire messages and a stolen STEK: 0-RTT data always
    falls; [Psk_ke] application data falls; [Psk_dhe_ke] application data
    survives (the fresh DH output is missing). *)
