(** Directory-backed streaming observation sink, and the run's durable
    log.

    Every campaign and traffic run appends each day's rows here as the
    day completes — one {!Durable.Spool} per scan stream — and holds no
    observation matrix in memory; a CSV archive is exported from the
    log after the run. The payloads are opaque here: {!Daily_scan} owns
    the block codec (day blocks that also carry the scan's resume
    state, the end-of-stream trailer, and the loader that reassembles a
    campaign from a sink directory).

    The directory is the only crash-recovery log a campaign keeps: the
    manifest pins the run, and opening a stream hands the scanner the
    spool's valid block prefix before truncating it. The log's content
    is byte-identical at any [--jobs] (stream names and payloads depend
    only on the world and shard partition), and after a resume (every
    block is re-emitted, restored or replayed). *)

type t
(** An open sink directory. *)

type stream
(** One append-only row stream within the sink (one per campaign
    shard, ["shard-0007"], or per traffic user shard). *)

val schema : string
(** The manifest schema this build writes and reads
    (["tlsharm-stream/2"]). *)

val create : dir:string -> manifest:(string * string) list -> (t, string) result
(** Create [dir] if needed and write its manifest ([schema] is
    prepended). A directory that already holds a manifest is re-attached
    only if it is byte-identical to this one — that is how an
    interrupted run resumes. A different run's manifest, a manifest of
    another schema and a damaged manifest are each an [Error]; nothing
    in the directory is touched. *)

val with_sink :
  ?dir:string ->
  manifest:(string * string) list ->
  (t -> ('a, string) result) ->
  ('a, string) result
(** [with_sink ?dir ~manifest f] runs [f] on the sink {!create} makes in
    [dir]. A run given no [dir] still writes its log: to a fresh
    directory under {!Filename.get_temp_dir_name}, removed with
    everything in it when [f] returns or raises. *)

val dir : t -> string

val stream : t -> string -> stream
(** Open the named row spool: read its valid block prefix (see
    {!prefix}), then truncate it for this run's blocks. *)

val prefix : stream -> decode:(index:int -> string -> 'a option) -> (string * 'a) list
(** The leading blocks the spool held when {!stream} opened it — each
    framed intact and accepted by [decode] (called with the block's
    position) — paired with their raw bytes. The first block [decode]
    refuses ends the prefix, as does the first damaged or torn frame. *)

val append_day : stream -> rows:int -> string -> unit
(** Append one day-block payload; [rows] feeds {!rows_written}. *)

val finish : stream -> trailer:string -> unit
(** Append the end-of-stream trailer (per-domain facts only known at
    campaign end, e.g. trust verdicts) and seal the spool. Idempotent. *)

val rows_written : t -> int
(** Total rows appended across all streams (worker-domain safe). *)

val manifest : dir:string -> ((string * string) list, string) result
(** The manifest of a sink directory; a missing or damaged manifest, or
    one of another {!schema}, is an [Error]. *)

val stream_names : dir:string -> (string list, string) result
(** Stream names present in a sink directory, sorted. *)

val read_stream : dir:string -> string -> (string list * string, string) result
(** [read_stream ~dir name] returns [(day_blocks, trailer)] for a
    complete stream; an interrupted or damaged (footer-less, trailer-less
    or tag-failing) spool is an [Error] directing the operator to resume
    the run rather than silently loading a partial archive. *)
