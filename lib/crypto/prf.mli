(** TLS 1.2 pseudorandom function (RFC 5246, section 5) and the standard
    handshake derivations built on it. *)

val prf : secret:string -> label:string -> seed:string -> int -> string

val master_secret_len : int
(** 48 bytes. *)

val master_secret :
  pre_master:string -> client_random:string -> server_random:string -> string

val key_block : master:string -> client_random:string -> server_random:string -> int -> string

type master
(** A master secret keyed for HMAC once. A party builds it once per
    connection and computes or checks every Finished with it. *)

val key_master : string -> master

val client_finished : master -> handshake_hash:string -> string
val server_finished : master -> handshake_hash:string -> string
