(** Configuration for the TLS engines. [env] fixes the cryptographic
    environment: which DH group, ECDHE curve and PKI curve a deployment
    uses. *)

type env = {
  dh_group : Crypto.Dh.group;
  ecdhe_curve : Crypto.Ec.curve;
  ecdhe_curve_id : int;  (** named-curve code point carried in SKE *)
  pki_curve : Crypto.Ec.curve;  (** certificate / signature curve *)
}

val sim_env : ?seed:string -> unit -> env
(** The small-parameter groups every world runs on (see DESIGN.md on
    this substitution): a 64-bit DH group and 52/53-bit ECDHE and PKI
    curves derived from [seed] (default ["tlsharm"]). The
    production-sized Oakley-2 group and P-256 stay in {!Crypto}. *)

type ticket_config = {
  stek_manager : Stek_manager.t;
  lifetime_hint : int;  (** advertised in NewSessionTicket, seconds; 0 = unspecified *)
  accept_lifetime : int;  (** how old a ticket may be and still resume, seconds *)
  reissue_on_resumption : bool;  (** hand out a fresh ticket on abbreviated handshakes *)
}

type server_config = {
  env : env;
  suites : Types.cipher_suite list;  (** server preference order *)
  issue_session_ids : bool;  (** set a session ID in ServerHello at all *)
  session_cache : Session_cache.t option;  (** [None] = never resumes by ID *)
  tickets : ticket_config option;  (** [None] = no session ticket support *)
  kex_cache : Kex_cache.t;
  cert_chain : Cert.t list;  (** leaf first *)
  cert_key : Crypto.Ecdsa.keypair;
}

type client_config = {
  cl_env : env;
  offer_suites : Types.cipher_suite list;
  offer_ticket : bool;  (** include the session-ticket extension *)
  root_store : Cert.root_store;
  check_certs : bool;  (** abort the handshake on an untrusted chain *)
  evaluate_trust : bool;
      (** run chain validation at all; bulk scanners turn this off and
          validate once per domain from the recorded chain instead *)
  verify_ske : bool;  (** check the ServerKeyExchange signature *)
}

val default_client : env:env -> root_store:Cert.root_store -> client_config
(** Every suite offered, tickets on, every check on. *)
