(* Configuration for the TLS engines.

   [env] fixes the cryptographic environment — which DH group, ECDHE curve
   and PKI curve a deployment uses. [sim_env] instantiates the
   small-parameter groups every world runs on (see DESIGN.md on this
   substitution); the production-sized Oakley-2 group and P-256 stay in
   {!Crypto} for tests, the OpenSSL oracle and the bench. *)

type env = {
  dh_group : Crypto.Dh.group;
  ecdhe_curve : Crypto.Ec.curve;
  ecdhe_curve_id : int; (* named-curve code point carried in SKE *)
  pki_curve : Crypto.Ec.curve; (* certificate / signature curve *)
}

(* Small-curve sizes: 52/53-bit primes keep each field element in one
   native int (Crypto.Word_field) while leaving public-value collision
   probability across a full study negligible (~10^6 values in a ~2^50
   group: < 10^-3 expected accidental collisions). *)
let sim_env ?(seed = "tlsharm") () =
  {
    dh_group = Crypto.Dh.generate ~bits:64 ~seed;
    ecdhe_curve = Crypto.Ec.generate_small ~bits:52 ~seed;
    ecdhe_curve_id = 0xfe00;
    pki_curve = Crypto.Ec.generate_small ~bits:53 ~seed:(seed ^ "-pki");
  }

(* --- Server-side ------------------------------------------------------------ *)

type ticket_config = {
  stek_manager : Stek_manager.t;
  lifetime_hint : int; (* advertised in NewSessionTicket, seconds; 0 = unspecified *)
  accept_lifetime : int; (* how old a ticket may be and still resume, seconds *)
  reissue_on_resumption : bool; (* hand out a fresh ticket on abbreviated handshakes *)
}

type server_config = {
  env : env;
  suites : Types.cipher_suite list; (* server preference order *)
  issue_session_ids : bool; (* set a session ID in ServerHello at all *)
  session_cache : Session_cache.t option; (* None = never resumes by ID *)
  tickets : ticket_config option; (* None = no session ticket support *)
  kex_cache : Kex_cache.t;
  cert_chain : Cert.t list; (* leaf first *)
  cert_key : Crypto.Ecdsa.keypair;
}

(* --- Client-side ------------------------------------------------------------ *)

type client_config = {
  cl_env : env;
  offer_suites : Types.cipher_suite list;
  offer_ticket : bool; (* include the session-ticket extension *)
  root_store : Cert.root_store;
  check_certs : bool; (* abort the handshake on an untrusted chain *)
  evaluate_trust : bool;
      (* run chain validation at all; bulk scanners turn this off and
         validate once per domain from the recorded chain instead *)
  verify_ske : bool; (* check the ServerKeyExchange signature *)
}

let default_client ~env ~root_store =
  {
    cl_env = env;
    offer_suites = Types.all_cipher_suites;
    offer_ticket = true;
    root_store;
    check_certs = true;
    evaluate_trust = true;
    verify_ske = true;
  }
