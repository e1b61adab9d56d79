(** Block-cipher modes over {!Aes}: CBC with PKCS#7 padding and CTR. *)

val cbc_encrypt : Aes.t -> iv:string -> string -> string
(** PKCS#7-pads and encrypts. The IV must be 16 bytes. *)

val cbc_decrypt : Aes.t -> iv:string -> string -> (string, string) result
(** Decrypts and strips PKCS#7 padding. *)

val ctr_encrypt : Aes.t -> nonce:string -> string -> string
(** Counter mode keystream XOR; [nonce] is at most 8 bytes and occupies the
    front of the counter block. Encryption and decryption coincide. *)

val ctr_decrypt : Aes.t -> nonce:string -> string -> string
