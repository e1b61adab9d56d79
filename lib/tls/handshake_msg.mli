(** TLS handshake messages (RFC 5246 section 7.4 subset) and their wire
    codec: one-byte message type, three-byte length, then the body.

    One encoding per message: a sender encodes each message once
    ({!frame}) and uses those bytes for the wire and for its transcript
    hash; a receiver gets each message with the exact bytes it arrived as
    ({!read_all}) and hashes those, as RFC 5246 section 7.4.9 specifies.
    No handshake re-encodes a message it sent or received. *)

type client_hello = {
  ch_version : Types.version;
  ch_random : string;  (** 32 bytes *)
  ch_session_id : string;  (** 0..32 bytes; non-empty offers ID resumption *)
  ch_cipher_suites : int list;  (** raw code points, preserving unknown offers *)
  ch_extensions : Extension.t list;
}

type server_hello = {
  sh_version : Types.version;
  sh_random : string;
  sh_session_id : string;
  sh_cipher_suite : Types.cipher_suite;
  sh_extensions : Extension.t list;
}

(** ServerKeyExchange parameters: DHE carries the group explicitly like
    real TLS; ECDHE names the curve. *)
type ske_params =
  | Ske_dhe of { dh_p : string; dh_g : string; dh_ys : string }
  | Ske_ecdhe of { curve_id : int; point : string }

type server_key_exchange = { ske_params : ske_params; ske_signature : string }
type new_session_ticket = { nst_lifetime_hint : int;  (** seconds *) nst_ticket : string }

type t =
  | Client_hello of client_hello
  | Server_hello of server_hello
  | Certificate of string list  (** encoded certificates, leaf first *)
  | Server_key_exchange of server_key_exchange
  | Server_hello_done
  | Client_key_exchange of string  (** client public value, kex-specific *)
  | New_session_ticket of new_session_ticket
  | Finished of string  (** 12-byte verify_data *)

val message_name : t -> string
(** ["ClientHello"], ["ServerHello"], … *)

val to_bytes : t -> string

val of_bytes : string -> (t, string) result
(** Exactly one message; trailing bytes are an [Error]. *)

type framed = { msg : t; bytes : string  (** the message's exact wire bytes *) }

val frame : t -> framed
(** Encode once: [bytes] is [to_bytes msg]. *)

val read_all : string -> (framed list, string) result
(** A concatenated sequence of messages (one flight), each with the
    slice of the input it was parsed from. *)

(** {2 Transcript}

    A running SHA-256 over each message's wire bytes, as sent or as
    received; both ends of a handshake keep one. *)

val absorb : Crypto.Sha256.t -> framed -> unit

val send : Crypto.Sha256.t -> t -> framed
(** Encode an outgoing message once ({!frame}) and absorb it. *)

val transcript_hash : Crypto.Sha256.t -> string
(** The hash so far, read from a copy: the transcript keeps running. *)
