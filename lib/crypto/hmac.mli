(** HMAC-SHA256 (RFC 2104). *)

type key
(** A keyed context: the key's ipad and opad blocks already absorbed.
    Immutable, so one context may serve any number of MACs on any
    domain. Build it once per key with {!key}. *)

val key : string -> key

val mac : key -> string -> string
(** [mac (key k) msg] is the 32-byte HMAC-SHA256 tag, [sha256 ~key:k msg].
    A message of at most {!Sha256.max_tail} bytes costs two compressions
    (three past 55 bytes) and allocates only the tag. *)

val mac_parts : key -> string list -> string
(** [mac_parts ctx parts] is [mac ctx (String.concat "" parts)] without
    materializing the concatenation, at {!mac}'s costs. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC-SHA256 tag, for a key used once. *)

val equal_ct : string -> string -> bool
(** Constant-time equality for MAC tags. *)

val verify : key:string -> msg:string -> tag:string -> bool
