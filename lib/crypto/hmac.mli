(** HMAC-SHA256 (RFC 2104). *)

type key
(** A keyed context: the key's ipad and opad blocks already absorbed.
    Immutable, so one context may serve any number of MACs on any
    domain. Build it once per key with {!key}. *)

val key : string -> key

val mac : key -> string -> string
(** [mac (key k) msg] is the 32-byte HMAC-SHA256 tag, [sha256 ~key:k msg].
    A message of at most {!Sha256.max_short} bytes costs two compressions
    and allocates only the tag. *)

val mac_parts : key -> string list -> string
(** [mac_parts ctx parts] is [mac ctx (String.concat "" parts)] without
    materializing the concatenation. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC-SHA256 tag, for a key used once. *)

(** {2 Contexts in caller buffers}

    A context is {!context_size} bytes: the ipad then the opad midstate.
    These entry points read and write one at an offset in a buffer the
    caller keeps, so a generator that rekeys on every draw updates its
    context in place. *)

val context_size : int

val key_into : Bytes.t -> pos:int -> len:int -> Bytes.t -> at:int -> unit
(** [key_into src ~pos ~len dst ~at] writes into [dst] at [at] the
    context of the [len]-byte key at [src.(pos)], without allocating. The
    key may overlap the destination. Raises [Invalid_argument] unless
    [0 <= len <= 64]; hash a longer key first, as {!key} does. *)

val context : Bytes.t -> pos:int -> key
(** [context buf ~pos] is the context at [buf.(pos)] as a {!key}. *)

val mac_into : Bytes.t -> ctx:int -> Bytes.t -> pos:int -> len:int -> Bytes.t -> at:int -> unit
(** [mac_into buf ~ctx msg ~pos ~len dst ~at] writes into [dst] at [at]
    the tag of the [len] bytes of [msg] at [pos] under the context at
    [buf.(ctx)]: two compressions, no allocation. [dst] may overlap the
    message but not the context. Raises [Invalid_argument] unless
    [0 <= len <= Sha256.max_short]. *)

val equal_ct : string -> string -> bool
(** Constant-time equality for MAC tags. *)

val verify : key:string -> msg:string -> tag:string -> bool
