(** X25519 Diffie-Hellman (RFC 7748). *)

val key_len : int
(** 32. *)

val scalar_mult : scalar:string -> u:string -> string
(** [scalar_mult ~scalar ~u] clamps [scalar] (32 bytes) and evaluates the
    Montgomery ladder at the u-coordinate [u] (32 bytes, little-endian). *)

val base_point : string

type keypair

val gen_keypair : Rng.t -> keypair
val public_bytes : keypair -> string

val shared_secret : keypair -> peer_pub:string -> (string, string) result
(** Rejects low-order peer points (all-zero shared secret). *)
