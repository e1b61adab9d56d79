(** AES (FIPS 197) block cipher with 128/192/256-bit keys, on 32-bit
    T-tables: four lookups and four xors per column and round, with no
    allocation per block beyond the output of {!encrypt_block} and
    {!decrypt_block}. *)

type t
(** The encryption schedule and the equivalent-inverse decryption
    schedule of one key, both built by {!of_key}. Immutable. *)

val of_key : string -> t
(** Raises [Invalid_argument] unless the key is 16, 24 or 32 bytes. *)

val block_size : int
(** 16. *)

val encrypt_block : t -> string -> string
val decrypt_block : t -> string -> string

val encrypt_in_place : t -> bytes -> int -> unit
(** [encrypt_in_place t b pos] encrypts the 16 bytes of [b] at [pos]
    over themselves; {!Block_mode} runs a whole message in one buffer
    this way. *)

val decrypt_in_place : t -> bytes -> int -> unit
