(** Simulation randomness: label-addressed, counter-mode streams over
    SHA-256.

    The only randomness source in the project: seeding it makes every
    simulation and key generation reproducible. A generator is a 32-byte
    key and a block counter; block [i] of its stream is
    SHA-256(key || 0x00 || i as 8 bytes big-endian), one compression
    from the standard IV. Draws are served from the current block.

    The streams are simulation randomness, not an SP 800-90A DRBG: there
    is no reseeding, no prediction resistance and no backtracking
    resistance, and anyone who reads a state can replay the stream. The
    simulated keys drawn from it protect nothing outside the simulation. *)

type t

val create : seed:string -> t
(** A root generator with key SHA-256("tlsharm-rng" || 0x02 || seed). *)

val fork : t -> label:string -> t
(** [fork t ~label] is the child with key SHA-256(key || 0x01 || label),
    where key is [t]'s. It reads nothing from [t]'s stream, so the child
    depends only on the parent's key and the label, never on draw or
    build order. Raises [Invalid_argument] if [t] has already forked
    [label]: two children with one label would draw the same stream,
    which in this simulation would manufacture exactly the cross-domain
    secret sharing the study measures. *)

(** {2 Draws}

    Byte strings ({!generate}, {!generate_into}, {!byte}) take the
    stream's bytes in order, across block boundaries. A 62-bit word
    ({!int_below} and everything built on it) takes 8 bytes and never
    straddles a block: when fewer than 8 bytes of the current block
    remain, they are skipped and the word is the next block's first 8. *)

val generate : t -> int -> string
(** [generate t n] is the next [n] bytes of the stream. *)

val generate_into : t -> Bytes.t -> pos:int -> len:int -> unit
(** [generate_into t buf ~pos ~len] writes the next [len] bytes into
    [buf] at [pos]: the same bytes and the same advance as
    [generate t len]. Raises [Invalid_argument] if the range falls
    outside [buf]. *)

val byte : t -> int

val int_below : t -> int -> int
(** Unbiased draw in [\[0, n)]. *)

val int_range : t -> int -> int -> int
(** Unbiased draw in [\[lo, hi\]] (inclusive). *)

val float01 : t -> float
val bool : t -> p:float -> bool
val pick : t -> 'a array -> 'a
val pick_list : t -> 'a list -> 'a
val shuffle : t -> 'a array -> unit

val weighted : t -> (float * 'a) list -> 'a
(** Draw from a discrete distribution of (weight, value) pairs. *)

val exponential : t -> mean:float -> float

val bignum_below : t -> Bignum.t -> Bignum.t
(** Unbiased draw in [\[0, n)]. *)

val bignum_in_group : t -> Bignum.t -> Bignum.t
(** Unbiased draw in [\[1, n-1\]]. *)

(** {2 Snapshots} *)

type state = { key : string; counter : int; offset : int }
(** A position in a stream: the key, the number of blocks drawn so far
    and how many bytes of the last one are used (32 when none is left,
    as at the start). *)

val state : t -> state
(** Snapshot of the generator's position. The set of labels already
    forked is not part of it. *)

val restore : state:state -> t
(** The generator that continues the stream exactly where the snapshot
    was taken. Raises [Invalid_argument] unless the key is 32 bytes,
    [0 <= offset <= 32], [counter >= 0] and [counter > 0] whenever
    [offset < 32]. *)
