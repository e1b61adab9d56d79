(** A growable byte-string builder with big-endian primitives matching the
    TLS presentation language (RFC 5246, section 4). *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val to_string : t -> string

val clear : t -> unit
(** Drop the contents but keep the underlying storage, so one writer can
    frame many messages without reallocating. *)

val u8 : t -> int -> unit
val u16 : t -> int -> unit
val u24 : t -> int -> unit
val u32 : t -> int -> unit

val u64 : t -> int -> unit
(** Writes the low 63 bits of a non-negative OCaml int as 8 bytes. *)

val bytes : t -> string -> unit

val vec8 : t -> string -> unit
(** Opaque vector with a one-byte length prefix. *)

val vec16 : t -> string -> unit
(** Opaque vector with a two-byte length prefix. *)

val vec24 : t -> string -> unit
(** Opaque vector with a three-byte length prefix. *)

val build : (t -> unit) -> string
(** [build f] runs [f] on a fresh writer and returns the accumulated bytes. *)

(** {2 Direct stores into preallocated buffers}

    Big-endian counterparts of the streaming writers that encode at a
    fixed offset of a caller-owned [Bytes.t], for hot paths that reuse
    one scratch buffer across many messages. Range checks match the
    streaming variants; offsets are checked by [Bytes.set]. *)

val set_u8 : Bytes.t -> int -> int -> unit
val set_u16 : Bytes.t -> int -> int -> unit
val set_u24 : Bytes.t -> int -> int -> unit
val set_u32 : Bytes.t -> int -> int -> unit

val set_u64 : Bytes.t -> int -> int -> unit
(** Writes the low 63 bits of a non-negative OCaml int as 8 bytes. *)
