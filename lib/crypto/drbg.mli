(** Deterministic HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 variant).

    The only randomness source in the project: seeding it makes every
    simulation and key generation reproducible. *)

type t
(** A generator: K, K's HMAC context and V in one buffer, updated in place
    by every draw. A one-block draw costs 8 SHA-256 compressions and
    allocates only its output. *)

val create : seed:string -> t
val of_int_seed : int -> t
val reseed : t -> string -> unit

val generate : t -> int -> string
(** [generate t n] produces [n] pseudorandom bytes. *)

val generate_into : t -> Bytes.t -> pos:int -> len:int -> unit
(** [generate_into t buf ~pos ~len] writes [len] pseudorandom bytes into
    [buf] at [pos] with no intermediate copies. Draws the same stream as
    {!generate}: a [generate_into] of [len] advances the generator state
    exactly as [generate t len] would. Raises [Invalid_argument] if the
    range falls outside [buf]. *)

val fork : t -> label:string -> t
(** Derive an independent child generator; children with distinct labels
    produce independent streams regardless of later draws from the
    parent. *)

val state : t -> string * string
(** The generator's full internal state [(K, V)], two 32-byte strings.
    Snapshot for the resume state of campaign day blocks. *)

val restore : state:string * string -> t
(** Rebuild a generator from a {!state} snapshot; the restored generator
    continues the stream exactly where the snapshot was taken. Raises
    [Invalid_argument] unless both components are 32 bytes. *)

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
