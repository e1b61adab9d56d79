(** Deterministic metrics registry: counters, gauges and fixed-bucket
    histograms over the simulated timeline. Counters and histogram cells
    merge by addition and gauges by maximum — commutative and
    associative, so per-shard registries merged in any order (at any
    worker count) produce the registry a single worker would have. The
    rendering sorts instrument names: equal registries render to equal
    bytes. *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val gauge_max : t -> string -> int -> unit
(** Set-to-maximum semantics, on update and on merge alike — the only
    gauge the merge laws allow. *)

val observe : t -> string -> bounds:int array -> int -> unit
(** Record a histogram observation. [bounds] are ascending inclusive
    upper bounds; values above the last bound land in an open overflow
    bucket. Raises [Invalid_argument] if [name] was previously observed
    with different bounds. *)

val counter_value : t -> string -> int
(** 0 when the counter does not exist. *)

val gauge_value : t -> string -> int option

val merge : t -> t -> unit
(** [merge dst src] absorbs [src] into [dst]. Raises [Invalid_argument]
    on an instrument-kind or histogram-bounds clash. *)

val schema : string

val to_json_string : t -> string
val equal : t -> t -> bool
