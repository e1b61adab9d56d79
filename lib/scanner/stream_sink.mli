(** Directory-backed streaming observation sink, and the run's durable
    log.

    Every campaign and traffic run appends each day's rows here as the
    day completes — one {!Durable.Spool} per scan stream — and holds no
    observation matrix in memory; a CSV archive is exported from the
    log after the run. The payloads are opaque here: {!Daily_scan} and
    the traffic row codec own them.

    The directory is the only crash-recovery log a run keeps, and one
    rule resumes every stream in it ({!stream}): a sealed stream that
    holds the whole run is kept as it is, and any other stream is
    re-run from day 0, each re-emitted block checked against the block
    the spool held at that position. A stream whose writer raised
    mid-run is never sealed, so the same rule finishes a crashed run as
    a killed one. The log's content is byte-identical at any [--jobs]
    (stream names and payloads depend only on the world and shard
    partition), and after a resume. *)

type t
(** An open sink directory. *)

type stream
(** One append-only row stream within the sink (one per campaign
    shard, ["shard-0007"], or per traffic user shard). *)

val schema : string
(** The manifest schema this build writes and reads
    (["tlsharm-stream/4"]). *)

exception Mismatch of string
(** A re-run diverged from the run log it resumes (another seed or
    world, code drift, or a block this build would never write). It
    aborts the run: the log is left as it was up to the diverging
    stream, which stays unsealed. *)

val mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [mismatch fmt …] raises {!Mismatch} with a formatted message. *)

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

type opened =
  | Kept of string
      (** The spool was sealed with the run's day blocks and a trailer:
          its bytes are left untouched, and this is its trailer. *)
  | Rerun of stream  (** The spool was truncated; write every block again. *)

val stream : t -> string -> days:int -> opened
(** [stream t name ~days] opens the named row spool under the resume
    rule. A spool that is sealed and holds exactly [days] day blocks
    plus a trailer is [Kept]. Any other spool (missing, partial, torn,
    damaged, or of another day count) is read for its valid block prefix
    and truncated, and the stream is re-run from day 0: while
    {!append_day} re-emits block [i], it compares it with the [i]-th
    recorded block and raises {!Mismatch} if they differ. *)

val append_day : stream -> rows:int -> string -> unit
(** Append one day-block payload, checked as {!stream} says; [rows]
    feeds {!rows_written}. *)

val finish : stream -> trailer:string -> unit
(** Append the end-of-stream trailer (per-domain facts only known at
    campaign end, e.g. trust verdicts) and seal the spool. Idempotent. *)

val rows_written : t -> int
(** Rows this process appended across all streams (worker-domain safe).
    A [Kept] stream adds none. *)

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
