(** Hexadecimal encoding and decoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of the bytes of [s]. *)

val decode : string -> string
(** [decode h] parses hex back to raw bytes. Whitespace is ignored, so
    RFC test vectors can be pasted verbatim. Raises [Invalid_argument]
    on odd length or non-hex characters. *)

val decode_opt : string -> string option
(** Like {!decode} but returning [None] on malformed input. *)

