(** The server-side session cache backing session-ID resumption
    (Section 4.1 of the paper). One instance may be shared by many
    servers and domains — the Section 5.1 state sharing. Entries expire
    [lifetime] seconds after storage; capacity is enforced FIFO. *)

type t

val create : lifetime:int -> capacity:int -> t
(** [lifetime = 0] disables caching (state dropped immediately). Raises
    [Invalid_argument] on negative lifetime or non-positive capacity. *)

val lifetime : t -> int
val size : t -> int

val queue_length : t -> int
(** Diagnostic: current length of the FIFO eviction queue, including
    not-yet-purged ghosts of removed entries. Bounded by twice the
    capacity regardless of campaign length. *)

val store : t -> now:int -> Session.t -> unit
(** Raises [Invalid_argument] on an empty session ID. *)

val lookup : t -> now:int -> string -> Session.t option
(** Expired entries are dropped lazily on access. *)

val remove : t -> string -> unit
val flush : t -> unit

val dump : t -> Session.t list
(** Compromise accessor: what an attacker reading the cache memory
    obtains. Used by the {!Tlsharm.Attack} demonstrations. *)
