(** The server-side session cache backing session-ID resumption
    (Section 4.1 of the paper). One instance may be shared by many
    servers and domains — the Section 5.1 state sharing. Entries expire
    [lifetime] seconds after storage; capacity is enforced FIFO. *)

type t

val create : lifetime:int -> capacity:int -> t
(** [lifetime = 0] disables caching (state dropped immediately). Raises
    [Invalid_argument] on negative lifetime or non-positive capacity. *)

val size : t -> int

val store : t -> now:int -> Session.t -> unit
(** Drops the expired oldest entries, then evicts the oldest live one if
    the cache is full. Raises [Invalid_argument] on an empty session
    ID. *)

val lookup : t -> now:int -> string -> Session.t option
(** [None] for an expired entry; removes nothing. *)

val flush : t -> unit

val dump : t -> Session.t list
(** Compromise accessor: what an attacker reading the cache memory
    obtains. Used by the {!Tlsharm.Attack} demonstrations. *)
