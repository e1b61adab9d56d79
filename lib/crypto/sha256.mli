(** SHA-256 (FIPS 180-4). *)

type t
(** Streaming hash state. *)

val init : unit -> t
val update : t -> string -> unit

val copy : t -> t
(** An independent state with the same absorbed input: finalizing or
    updating either leaves the other untouched. Running transcript hashes
    finalize a copy to read the hash so far. *)

val finalize : t -> string
(** Returns the 32-byte digest. The state must not be reused afterwards. *)

val digest : string -> string
(** One-shot digest. *)

val digest_list : string list -> string
(** Digest of the concatenation of the parts, without building it. *)

val digest_size : int
val block_size : int

(** {2 Midstates}

    A midstate is the 32-byte chaining value after whole blocks, big-endian
    as in a digest. HMAC absorbs its two key pads once per key and resumes
    from them for every message. *)

val midstate_of_block : Bytes.t -> Bytes.t -> pos:int -> unit
(** [midstate_of_block block dst ~pos] writes into [dst] at [pos] the
    midstate after absorbing exactly the first 64 bytes of [block]. *)

val of_midstate : string -> pos:int -> t
(** [of_midstate s ~pos] is the state that has absorbed one block whose
    midstate is the 32 bytes of [s] at [pos]. *)

val max_short : int
(** 55: the longest tail that fits in one final block with its padding. *)

val finish_short : Bytes.t -> int -> Bytes.t -> pos:int -> len:int -> Bytes.t -> at:int -> unit
(** [finish_short mid mpos msg ~pos ~len dst ~at] writes into [dst] at
    [at] the digest of a message whose first 64-byte block has the
    midstate at [mid.(mpos)] and whose remaining [len] bytes are those of
    [msg] at [pos], in one compression and without allocating. [dst] may
    overlap [msg] or the midstate. Raises [Invalid_argument] unless
    [0 <= len <= max_short]. *)
