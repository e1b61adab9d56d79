(** Streaming archive for a traffic run: a {!Scanner.Stream_sink}
    directory (mode [traffic]) holding one spool per user shard, each a
    sequence of {!Row} day blocks plus a trailer. The payload codec
    lives in {!Row}; this module frames it. {!Scanner.Stream_sink.create}
    refuses to re-attach to a directory whose manifest differs.
    Shards resume under {!Scanner.Stream_sink.stream}'s rule: a shard
    whose spool is already sealed for the whole run, and decodes, is
    kept with its bytes untouched, and any other is re-run from day 0 and checked
    against its recorded blocks, which is what makes a crashed-and-rerun
    traffic run byte-identical to an uninterrupted one. *)

val stream : Scanner.Stream_sink.t -> int -> days:int -> unit Scanner.Stream_sink.opened
(** Open shard [i]'s spool under the resume rule for a [days]-day run.
    A sealed spool is kept only if every day block and the trailer
    decode, as {!read_shard} reads them; one that does not is refused
    with {!Scanner.Stream_sink.Mismatch}, naming the stream and the
    day. *)

val append_day : Scanner.Stream_sink.stream -> day:int -> Row.t list -> unit

val finish :
  Scanner.Stream_sink.stream ->
  users_lo:int ->
  users_hi:int ->
  hosts:(string * Row.host_info) list ->
  unit

val shard_ids : dir:string -> (int list, string) result
(** Shard ids present in an archive, ascending. *)

val read_shard :
  dir:string ->
  shard:int ->
  (Row.t list * (int * int * (string * Row.host_info) list), string) result
(** All rows of one complete shard in stream order, with its decoded
    trailer [(users_lo, users_hi, hosts)]. An incomplete or damaged
    spool (a block failing its tag) is an [Error], never an exception,
    and so is a block that does not decode (naming the stream and the
    day). *)
