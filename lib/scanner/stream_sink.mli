(** Directory-backed streaming observation sink.

    Lets a campaign append each day's domain-day rows as the day
    completes — one {!Durable.Spool} per scan stream — instead of
    holding the full observation matrix in memory until a final CSV
    save. The payloads are opaque here: {!Daily_scan} owns the row
    codec (encoding day blocks, the end-of-stream trailer, and the
    loader that reassembles a campaign from a sink directory).

    Streamed archives obey the same two invariants as in-memory ones:
    byte-identical content at any [--jobs] (stream names and payloads
    depend only on the world and shard partition), and byte-identical
    content after a checkpoint resume (spools are truncated on open and
    every completed day is replayed into them). *)

type t
(** An open sink directory. *)

type stream
(** One append-only row stream within the sink (one per campaign
    shard, ["shard-0007"] — mirroring checkpoint stream names). *)

val schema : string

val create : dir:string -> manifest:(string * string) list -> (t, string) result
(** Create [dir] if needed and (re)write its manifest. An existing
    directory is reused — its spools will be truncated as streams are
    opened, which is what makes a resumed run byte-identical to an
    uninterrupted one. *)

val dir : t -> string

val stream : t -> string -> stream
(** Open (truncating) the named row spool. *)

val append_day : stream -> rows:int -> string -> unit
(** Append one day-block payload; [rows] feeds {!rows_written}. *)

val finish : stream -> trailer:string -> unit
(** Append the end-of-stream trailer (per-domain facts only known at
    campaign end, e.g. trust verdicts) and seal the spool. Idempotent. *)

val rows_written : t -> int
(** Total rows appended across all streams (worker-domain safe). *)

val manifest : dir:string -> ((string * string) list, string) result

val stream_names : dir:string -> (string list, string) result
(** Stream names present in a sink directory, sorted. *)

val read_stream : dir:string -> string -> (string list * string, string) result
(** [read_stream ~dir name] returns [(day_blocks, trailer)] for a
    complete stream; an interrupted (footer-less or trailer-less) spool
    is an [Error] directing the operator to resume from the checkpoint
    rather than silently loading a partial archive. *)
