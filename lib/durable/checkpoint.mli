(** Versioned checkpoint directories for resumable campaigns.

    A checkpoint directory holds a manifest (run parameters, format
    version) plus one subdirectory per {e stream} — an independent
    sequence of per-day snapshots, one per campaign shard
    (["shard-0007"]). All files are written through {!Atomic_io}, so
    crashes leave either the previous complete snapshot set or
    nothing. *)

exception Mismatch of string
(** Replayed computation diverged from a recorded checkpoint (wrong
    seed/world, code drift). A determinism-contract violation: it aborts
    the run rather than being retried, and worker supervision re-raises
    it instead of absorbing it. *)

val mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [mismatch fmt …] raises {!Mismatch} with a formatted message. *)

type t
(** A checkpoint store rooted at a directory. *)

val dir : t -> string
val version : int
(** The on-disk format version recorded in every manifest (2: shard
    streams only). *)

val init : dir:string -> manifest:(string * string) list -> (t, string) result
(** Create (or re-attach to) a checkpoint directory. A [version] field
    is prepended to the manifest automatically. Re-attaching succeeds
    only if the existing manifest matches exactly; a directory holding a
    different campaign, or written under another {!version}, is
    refused. *)

val attach : dir:string -> (t, string) result
(** Open an existing checkpoint directory for resuming; validates that a
    readable manifest of this {!version} is present. A store of another
    version is an [Error] naming both versions. *)

val manifest : t -> ((string * string) list, string) result
val find : t -> string -> string option
(** [find t key] looks up a manifest field; [None] if absent or the
    manifest is unreadable. *)

type stream
(** One per-day snapshot sequence within a store. *)

val stream : t -> string -> stream
(** [stream t name] opens (creating if needed) the stream subdirectory. *)

val write_day : stream -> day:int -> string -> unit
(** Atomically persist the payload for virtual day [day]. *)

val read_day : stream -> day:int -> (string, Atomic_io.error) result

val valid_prefix : ?decode:(day:int -> string -> bool) -> stream -> days:int -> int
(** The number of leading days ([0 .. n-1]) whose snapshots exist,
    verify their checksums, and satisfy [decode] (default: accept).
    Resume continues from this prefix: a corrupt or truncated day file
    ends the prefix there, which is exactly the fall-back-to-last-valid
    behaviour the CLI promises. *)
