(** A cursor over an immutable byte string, decoding the big-endian
    primitives that {!Writer} encodes. *)

exception Error of string
(** Raised on any malformed or truncated input. *)

type t

val is_empty : t -> bool

val pos : t -> int
(** The cursor's offset in the string the reader was made from; a
    {!sub} reader counts in its parent's string. *)

val u8 : t -> int
val u16 : t -> int
val u24 : t -> int
val u32 : t -> int
val u64 : t -> int

val take : t -> int -> string
(** [take t n] consumes and returns the next [n] bytes. *)

val take_rest : t -> string

val vec8 : t -> string
(** Opaque vector with a one-byte length prefix. *)

val vec16 : t -> string
val vec24 : t -> string

val sub : t -> int -> t
(** [sub t n] is a sub-reader confined to the next [n] bytes; the parent
    cursor advances past them. *)

val expect_end : t -> unit
(** Raises {!Error} if input remains. *)

val parse : string -> (t -> 'a) -> 'a
(** [parse data f] runs [f] over all of [data] and checks it was fully
    consumed. *)

val parse_result : string -> (t -> 'a) -> ('a, string) result
(** Exception-free variant of {!parse}. *)
