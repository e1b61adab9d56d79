(** Directory-backed streaming observation sink, and the run's durable
    log.

    Every campaign and traffic run appends each day's rows here as the
    day completes — one {!Durable.Spool} per scan stream — and holds no
    observation matrix in memory; a CSV archive is exported from the
    log after the run. The payloads are opaque here: {!Daily_scan} and
    the traffic row codec own them.

    The directory is the only crash-recovery log a run keeps, and one
    rule resumes every stream in it ({!stream}): a sealed stream that
    holds the whole run and decodes is kept as it is, and any other
    stream is re-run from day 0, each re-emitted block checked against
    the block the spool held at that position before anything is
    written. A resume that is refused therefore changes no byte of the
    stream it refuses. A stream whose writer raised mid-run is never sealed, so the
    same rule finishes a crashed run as a killed one. The log's content
    is byte-identical at any [--jobs] (stream names and payloads depend
    only on the world and shard partition), and after a resume. *)

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
    world, code drift, or a block this build would never write), or a
    sealed stream does not decode. It aborts the run and leaves the
    diverging stream's spool as it was. *)

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
    everything in it when [f] returns or raises. Nothing in such a
    temporary log is fsynced, neither its manifest nor its spools. *)

val dir : t -> string

type 'a opened =
  | Kept of 'a
      (** The spool was sealed with the run's day blocks and a trailer,
          and they decode: its bytes are left untouched, and this is
          what [decode] made of them. *)
  | Rerun of stream  (** Write every block again; see {!stream}. *)

val stream :
  t -> string -> days:int -> decode:(string list -> string -> ('a, string) result) -> 'a opened
(** [stream t name ~days ~decode] opens the named row spool under the
    resume rule. A spool that is sealed and holds exactly [days] day
    blocks plus a trailer is [Kept] if [decode day_blocks trailer]
    accepts it, and refused with {!Mismatch} carrying [decode]'s error
    if not. A spool of an earlier format version is refused with
    {!Mismatch} too. Any other spool (missing, partial, torn, damaged,
    or of another day count) is read for its valid block prefix and re-run
    from day 0: while the re-run emits block [i] ({!append_day}, then
    {!finish}'s trailer) it compares it with the [i]-th recorded block
    and raises {!Mismatch} if they differ. Nothing is written to the
    spool until every recorded block has matched; the first block past
    them cuts the torn tail off and appends. A refused re-run so leaves
    the spool byte for byte as it was. *)

val append_day : stream -> rows:int -> string -> unit
(** Emit one day-block payload, checked or appended as {!stream} says;
    [rows] feeds {!rows_written}. *)

val finish : stream -> trailer:string -> unit
(** Emit the end-of-stream trailer (per-domain facts only known at
    campaign end, e.g. trust verdicts) and seal the spool, fsyncing it
    unless the sink is a temporary one ({!with_sink} without [dir]).
    Raises {!Mismatch}, writing nothing, if the spool records more
    blocks than the re-run emitted. Idempotent. *)

val rows_written : t -> int
(** Rows of the day blocks this process's re-runs emitted, across all
    streams (worker-domain safe). A [Kept] stream adds none. *)

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
