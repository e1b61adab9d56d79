(** The client half of the handshake engine — in this project usually
    the scanner, so beyond completing handshakes it surfaces everything
    the measurements need (session IDs, tickets and their STEK key names,
    server key-exchange values, certificate chains with trust results). *)

type t

val create : ?prefer_x25519:bool -> config:Config.client_config -> rng:Crypto.Rng.t -> unit -> t
(** [prefer_x25519] ranks the X25519 named group (29) first in the
    supported_groups extension; servers honor the client's order. *)

(** What the client offers for resumption. Ticket offers carry the cached
    session state (master secret) kept alongside the opaque ticket, as
    RFC 5077 requires. *)
type offer =
  | Fresh
  | Offer_session_id of Session.t
  | Offer_ticket of { ticket : string; session : Session.t }

type state
(** Per-connection client state between flights. *)

val hello : t -> now:int -> hostname:string -> offer:offer -> Handshake_msg.framed * state
(** The ClientHello, encoded once: its bytes go on the wire and into the
    transcript. *)

type full_continuation

type flight_result =
  | Abbreviated of {
      client_finished : Handshake_msg.framed;
      session : Session.t;
      new_ticket : (int * string) option;
      session_id : string;
    }
      (** The server resumed; forward [client_finished] to finish. *)
  | Continue_full of {
      to_send : Handshake_msg.framed list;  (** [CKE; Finished] *)
      continuation : full_continuation;
      cert_chain : Cert.t list;
      trust : (Cert.t, Cert.validation_error) result;
      server_kex_public : string option;
          (** the (EC)DHE server value, as the scanner records it *)
      session_id : string;
    }

val handle_server_flight : state -> Handshake_msg.framed list -> (flight_result, string) result
(** Hashes each received message as the bytes it arrived as. *)

val finish_full :
  full_continuation ->
  now:int ->
  Handshake_msg.framed list ->
  (Session.t * (int * string) option, string) result
(** Process the server's closing [(NST); Finished]; returns the session
    and any issued ticket (lifetime hint, ticket bytes). *)
