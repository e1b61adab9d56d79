(** The TLS record layer: framing plus symmetric protection
    (encrypt-then-MAC: AES-128-CTR with a per-record nonce, then
    HMAC-SHA256 over sequence number, header and ciphertext). The key
    block derives from the master secret per RFC 5246 section 6.3 — which
    is what makes the paper's attacks concrete: a recovered master secret
    re-derives these keys and decrypts recorded records. *)

type t

val make : content_type:Types.content_type -> string -> t
(** A TLS 1.2 record; raises [Invalid_argument] past 16 KiB. *)

val content_type : t -> Types.content_type
val payload : t -> string
val to_bytes : t -> string
val of_bytes : string -> (t, string) result
val read_all : string -> (t list, string) result

(** {2 Connection protection} *)

type direction_keys
type keys = { client_write : direction_keys; server_write : direction_keys }

val derive_keys : master:string -> client_random:string -> server_random:string -> keys

type cipher_state
(** Keys plus a sequence number for one direction. *)

val cipher_state : direction_keys -> cipher_state

val seal : cipher_state -> t -> t
(** Encrypt-then-MAC; advances the sequence number. *)

val open_ : cipher_state -> t -> (t, Types.alert) result
(** Verify and decrypt; rejects tampering and replay ({!Types.alert}
    [Bad_record_mac]). *)

val seal_application_data : cipher_state -> string -> t list
(** Chunk, protect and frame application bytes. *)

val open_application_data : cipher_state -> t list -> (string, Types.alert) result
