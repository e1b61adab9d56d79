(** TLS hello extensions (the subset this study exercises), with the
    standard wire encoding: u16 type, u16-length body. *)

type t =
  | Server_name of string  (** RFC 6066 SNI, one host_name entry *)
  | Session_ticket of string  (** RFC 5077; [""] is the empty offer *)
  | Supported_groups of int list
  | Renegotiation_info
  | Unknown of int * string

val write_block : Wire.Writer.t -> t list -> unit
(** The hello extensions block; an empty list encodes as nothing at all
    (old-client style). *)

val read_block : Wire.Reader.t -> t list

val find_session_ticket : t list -> string option
val has_session_ticket : t list -> bool
