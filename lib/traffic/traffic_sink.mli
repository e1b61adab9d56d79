(** Streaming archive for a traffic run: a {!Scanner.Stream_sink}
    directory (mode [traffic]) holding one spool per user shard, each a
    sequence of {!Row} day blocks plus a trailer. The payload codec
    lives in {!Row}; this module frames it and guards the manifest.
    Shards resume under {!Scanner.Stream_sink.stream}'s rule: a shard
    whose spool is already sealed for the whole run is kept with its
    bytes untouched, and any other is re-run from day 0 and checked
    against its recorded blocks, which is what makes a crashed-and-rerun
    traffic run byte-identical to an uninterrupted one. *)

type t

val create : dir:string -> manifest:(string * string) list -> (t, string) result
(** {!Scanner.Stream_sink.create}: re-attaching to a directory whose
    manifest differs from [manifest] (a different population, policy or
    world) is refused, since silently mixing two runs' spools would
    corrupt the resume rule. *)

val with_sink :
  ?dir:string ->
  manifest:(string * string) list ->
  (t -> ('a, string) result) ->
  ('a, string) result
(** {!Scanner.Stream_sink.with_sink}: with no [dir], the archive lives
    in a temporary directory for the length of the callback. *)

val dir : t -> string
type stream = Scanner.Stream_sink.stream

val stream : t -> int -> days:int -> Scanner.Stream_sink.opened
(** Open shard [i]'s spool under the resume rule for a [days]-day run.
    Every traffic block is checked: a traffic shard has no in-process
    retry. *)

val append_day : stream -> day:int -> Row.t list -> unit

val finish :
  stream -> users_lo:int -> users_hi:int -> hosts:(string * Row.host_info) list -> unit

val rows_written : t -> int
val manifest : dir:string -> ((string * string) list, string) result

val shard_ids : dir:string -> (int list, string) result
(** Shard ids present in an archive, ascending. *)

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
