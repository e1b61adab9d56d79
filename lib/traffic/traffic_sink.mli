(** Streaming archive for a traffic run: a {!Scanner.Stream_sink}
    directory (mode [traffic]) holding one spool per user shard, each a
    sequence of {!Row} day blocks plus a trailer. The payload codec
    lives in {!Row}; this module frames it, guards the manifest, and
    gives the runner its resume primitive: a shard whose spool is
    already complete for the whole run is skipped and its bytes left
    untouched, which is what makes a crashed-and-rerun traffic run
    byte-identical to an uninterrupted one. *)

type t

val create : dir:string -> manifest:(string * string) list -> (t, string) result
(** {!Scanner.Stream_sink.create}: re-attaching to a directory whose
    manifest differs from [manifest] (a different population, policy or
    world) is refused, since silently mixing two runs' spools would
    corrupt the resume-skip logic. *)

val with_sink :
  ?dir:string ->
  manifest:(string * string) list ->
  (t -> ('a, string) result) ->
  ('a, string) result
(** {!Scanner.Stream_sink.with_sink}: with no [dir], the archive lives
    in a temporary directory for the length of the callback. *)

val dir : t -> string
val stream_name : int -> string

type stream

val stream : t -> int -> stream
(** Open (truncating) shard [i]'s spool. *)

val append_day : stream -> day:int -> Row.t list -> unit

val finish :
  stream -> users_lo:int -> users_hi:int -> hosts:(string * Row.host_info) list -> unit

val rows_written : t -> int
val manifest : dir:string -> ((string * string) list, string) result

val shard_ids : dir:string -> (int list, string) result
(** Shard ids present in an archive, ascending. *)

val shard_complete : dir:string -> shard:int -> days:int -> bool
(** The shard's spool is sealed and holds exactly [days] day blocks and
    a decodable trailer — safe to skip on resume. *)

val read_shard :
  dir:string ->
  shard:int ->
  (Row.t list * (int * int * (string * Row.host_info) list), string) result
(** All rows of one complete shard in stream order, with its decoded
    trailer [(users_lo, users_hi, hosts)]. An incomplete or damaged
    spool (a block failing its tag) is an [Error], never an exception. *)

val fold_rows :
  dir:string ->
  init:'a ->
  f:('a -> Row.t -> 'a) ->
  ('a * (string * Row.host_info) list, string) result
(** Fold every row of a complete archive in shard/day/event order,
    loading one shard at a time — the memory-flat path the tracking
    analysis uses. Returns the host table from the first trailer. *)
