(** Session Ticket Encryption Keys (STEKs): the key material sealing
    RFC 5077 tickets. The 16-byte key name travels in the clear inside
    every ticket — the identifier the paper's scanner tracks across days
    to bound STEK lifetimes (Section 4.3). *)

type t

val key_name_len : int (** 16 *)

val aes_key_len : int (** 16 *)

val hmac_key_len : int (** 32 *)

val raw_len : int
(** 64: name || AES key || HMAC key, the shape of the key files Apache
    2.4 / Nginx 1.5.7+ load to synchronize STEKs across servers. *)

val of_raw : created_at:int -> string -> t
(** Raises [Invalid_argument] unless the input is {!raw_len} bytes. *)

val generate : Crypto.Drbg.t -> now:int -> t

val derive : secret:string -> period:int -> now:int -> t
(** Deterministic derivation for epoch-aligned rotation: the STEK for
    period [k] of a secret is a pure function of both, which is how a
    synchronized fleet agrees on the current key without coordination. *)

val key_name : t -> string
val aes_key : t -> Crypto.Aes.t
val mac : t -> Crypto.Hmac.key
(** The ticket MAC key's HMAC context, built once per STEK. *)

val created_at : t -> int
val key_name_hex : t -> string
