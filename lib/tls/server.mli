(** The server half of the handshake engine. Performs real cryptography
    end to end: (EC)DHE with the configured reuse policy, ECDSA-signed
    key-exchange parameters, RFC 5077 ticket sealing, session caching,
    and Finished verification over the running transcript hash.

    Full handshake:    hello -> [handle_client_hello] = [Negotiating],
    then the client's [CKE; Finished] -> [handle_client_flight].
    Abbreviated:       [handle_client_hello] = [Resuming] (server Finished
    already in the flight), then [handle_client_finished].

    Messages cross this interface framed: every message the server sends
    is encoded once and the same bytes are hashed into its transcript,
    and every message it receives is hashed as the bytes it arrived as
    (see {!Handshake_msg}). *)

type t

val create : config:Config.server_config -> rng:Crypto.Rng.t -> t
val config : t -> Config.server_config

val restart : t -> now:int -> unit
(** Simulated process restart: per-process STEKs and cached ephemeral
    values die; static key files and external session caches survive. *)

type pending
(** A full handshake awaiting the client's second flight. *)

type resuming
(** An abbreviated handshake awaiting the client Finished. *)

type hello_result =
  | Negotiating of Handshake_msg.framed list * pending
      (** [SH; Certificate; (SKE); SHD] *)
  | Resuming of
      Handshake_msg.framed list * resuming * [ `Via_session_id | `Via_ticket ]
      (** [SH; (NST); Finished] *)

val handle_client_hello :
  t -> now:int -> Handshake_msg.framed -> (hello_result, Types.alert) result

val handle_client_flight :
  pending ->
  now:int ->
  Handshake_msg.framed list ->
  (Handshake_msg.framed list * Session.t, Types.alert) result
(** Takes [\[ClientKeyExchange; Finished\]]; returns [(NST); Finished]
    and the freshly established (and cached) session. *)

val handle_client_finished : resuming -> Handshake_msg.framed -> (Session.t, Types.alert) result

val ske_params_bytes : Handshake_msg.ske_params -> string
(** The byte encoding of key-exchange parameters covered by the server's
    signature (exposed for the client's verification). *)
