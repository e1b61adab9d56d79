(** Resumable TLS session state: what a server caches against a session
    ID and what a session ticket carries under the STEK. Holding this
    state beyond the connection is the forward-secrecy erosion the paper
    measures. *)

type t

val make :
  id:string -> master_secret:string -> cipher_suite:Types.cipher_suite -> established_at:int -> t
(** Raises [Invalid_argument] unless the master secret is 48 bytes and
    the ID is at most 32. An empty [id] means ticket-only state. *)

val id : t -> string
val master_secret : t -> string
val cipher_suite : t -> Types.cipher_suite

val established_at : t -> int
(** Epoch seconds of the original full handshake. *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result
val equal : t -> t -> bool
