(* Core TLS protocol types and constants (RFC 5246 subset) shared across
   the handshake, record and resumption machinery. *)

type version = TLS_1_0 | TLS_1_1 | TLS_1_2

let version_to_int = function TLS_1_0 -> 0x0301 | TLS_1_1 -> 0x0302 | TLS_1_2 -> 0x0303

let version_of_int = function
  | 0x0301 -> Some TLS_1_0
  | 0x0302 -> Some TLS_1_1
  | 0x0303 -> Some TLS_1_2
  | _ -> None

(* Key exchange families. [Static_ecdh] stands in for the non-forward-secret
   key exchanges (RSA key transport in the paper): the client computes a DH
   share against the *certificate's* long-term key, so compromising the
   long-term key retroactively decrypts everything — exactly the property
   the paper contrasts (EC)DHE against. *)
type key_exchange = Dhe | Ecdhe | Static_ecdh

(* Cipher suites: the study cares about the key exchange; symmetric
   protection is uniformly AES-128-CTR + HMAC-SHA256 in this
   implementation. Code points are from the private-use range. *)
type cipher_suite =
  | ECDHE_ECDSA_AES128_SHA256
  | DHE_ECDSA_AES128_SHA256
  | ECDH_ECDSA_AES128_SHA256

let all_cipher_suites =
  [ ECDHE_ECDSA_AES128_SHA256; DHE_ECDSA_AES128_SHA256; ECDH_ECDSA_AES128_SHA256 ]

let suite_to_int = function
  | ECDHE_ECDSA_AES128_SHA256 -> 0xffa1
  | DHE_ECDSA_AES128_SHA256 -> 0xffa2
  | ECDH_ECDSA_AES128_SHA256 -> 0xffa3

let suite_of_int = function
  | 0xffa1 -> Some ECDHE_ECDSA_AES128_SHA256
  | 0xffa2 -> Some DHE_ECDSA_AES128_SHA256
  | 0xffa3 -> Some ECDH_ECDSA_AES128_SHA256
  | _ -> None

let suite_kex = function
  | ECDHE_ECDSA_AES128_SHA256 -> Ecdhe
  | DHE_ECDSA_AES128_SHA256 -> Dhe
  | ECDH_ECDSA_AES128_SHA256 -> Static_ecdh

let suite_forward_secret s = match suite_kex s with Dhe | Ecdhe -> true | Static_ecdh -> false

let pp_cipher_suite ppf s =
  Format.pp_print_string ppf
    (match s with
    | ECDHE_ECDSA_AES128_SHA256 -> "ECDHE-ECDSA-AES128-SHA256"
    | DHE_ECDSA_AES128_SHA256 -> "DHE-ECDSA-AES128-SHA256"
    | ECDH_ECDSA_AES128_SHA256 -> "ECDH-ECDSA-AES128-SHA256")

(* Alerts: the subset of RFC 5246 alert descriptions the engines emit. *)
type alert =
  | Close_notify
  | Unexpected_message
  | Bad_record_mac
  | Handshake_failure
  | Bad_certificate
  | Certificate_expired
  | Certificate_unknown
  | Unknown_ca
  | Decode_error
  | Decrypt_error
  | Protocol_version
  | Illegal_parameter

let pp_alert ppf a =
  Format.pp_print_string ppf
    (match a with
    | Close_notify -> "close_notify"
    | Unexpected_message -> "unexpected_message"
    | Bad_record_mac -> "bad_record_mac"
    | Handshake_failure -> "handshake_failure"
    | Bad_certificate -> "bad_certificate"
    | Certificate_expired -> "certificate_expired"
    | Certificate_unknown -> "certificate_unknown"
    | Unknown_ca -> "unknown_ca"
    | Decode_error -> "decode_error"
    | Decrypt_error -> "decrypt_error"
    | Protocol_version -> "protocol_version"
    | Illegal_parameter -> "illegal_parameter")

type content_type = Change_cipher_spec | Alert_ct | Handshake_ct | Application_data

let content_type_to_int = function
  | Change_cipher_spec -> 20
  | Alert_ct -> 21
  | Handshake_ct -> 22
  | Application_data -> 23

let content_type_of_int = function
  | 20 -> Some Change_cipher_spec
  | 21 -> Some Alert_ct
  | 22 -> Some Handshake_ct
  | 23 -> Some Application_data
  | _ -> None

(* Byte widths fixed by the protocol. *)
let random_len = 32
let session_id_max = 32
let verify_data_len = 12

(* Named-group code point for X25519 (RFC 8422). *)
let x25519_group_id = 29
