(** Core TLS protocol types and constants (RFC 5246 subset). *)

type version = TLS_1_0 | TLS_1_1 | TLS_1_2

val version_to_int : version -> int
val version_of_int : int -> version option

(** Key-exchange families. [Static_ecdh] is the non-forward-secret
    exchange (the role RSA key transport plays in the paper): the
    certificate's long-term key is used directly for key agreement, so a
    later key compromise retroactively decrypts every recorded
    connection. *)
type key_exchange = Dhe | Ecdhe | Static_ecdh

(** Cipher suites. The measurements only care about the key exchange;
    symmetric protection is uniformly AES-128-CTR + HMAC-SHA256. *)
type cipher_suite =
  | ECDHE_ECDSA_AES128_SHA256
  | DHE_ECDSA_AES128_SHA256
  | ECDH_ECDSA_AES128_SHA256

val all_cipher_suites : cipher_suite list
val suite_to_int : cipher_suite -> int
val suite_of_int : int -> cipher_suite option
val suite_kex : cipher_suite -> key_exchange
val suite_forward_secret : cipher_suite -> bool
val pp_cipher_suite : Format.formatter -> cipher_suite -> unit

(** RFC 5246 alert descriptions (the subset the engines emit). *)
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

val pp_alert : Format.formatter -> alert -> unit

type content_type = Change_cipher_spec | Alert_ct | Handshake_ct | Application_data

val content_type_to_int : content_type -> int
val content_type_of_int : int -> content_type option

val random_len : int
(** 32: hello random width. *)

val session_id_max : int
(** 32. *)

val verify_data_len : int
(** 12: Finished verify_data width. *)

val x25519_group_id : int
(** 29: the X25519 named group (RFC 8422). *)
