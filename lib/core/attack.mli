(** Concrete end-to-end demonstrations of the attacks whose surface the
    study quantifies: a passive wiretap records a victim's handshake and
    encrypted application records; later one piece of server-side state
    leaks (STEK, cached DH private value, or session cache) and the
    recording decrypts. Nothing beyond the stolen server secret is used
    that was not visible on the wire. *)

type capture = {
  mutable client_random : string;
  mutable server_random : string;
  mutable ticket : string option;
  mutable client_kex_public : string option;
  mutable server_session_id : string;
}

type recording = {
  capture : capture;
  outcome : Tls.Engine.outcome;
  encrypted_records : Tls.Record.t list;
  plaintext : string;  (** ground truth, for verification *)
}

val victim_connection :
  ?plaintext:string ->
  Tls.Client.t ->
  Tls.Server.t ->
  now:int ->
  hostname:string ->
  offer:Tls.Client.offer ->
  (recording, string) result
(** Handshake under the wiretap, then application data protected with the
    negotiated keys and recorded as ciphertext. *)

val steal_stek_and_decrypt :
  recording -> server:Tls.Server.t -> now:int -> (string, string) result
(** Section 6.1: recorded ticket + stolen STEK -> plaintext. *)

val steal_kex_value_and_decrypt :
  recording -> server:Tls.Server.t -> env:Tls.Config.env -> (string, string) result
(** Section 6.3: stolen cached (EC)DHE private value -> plaintext. *)

val attempt_all :
  recording ->
  server:Tls.Server.t ->
  env:Tls.Config.env ->
  now:int ->
  (string * (string, string) result) list
(** All three attacks; against a server without the shortcuts every one
    fails — the negative control. *)
