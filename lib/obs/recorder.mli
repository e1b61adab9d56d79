(** A metrics registry bundled with a trace collector — the value the
    scanner, campaign runners and CLI thread around. Telemetry off is
    {!null}, not an absent recorder: every instrumentation site takes a
    plain [t], and recorders only read simulation state, so a run is
    byte-identical whichever recorder it gets. *)

type t

val null : t
(** The recorder of a run without telemetry. Every operation on it is a
    no-op that allocates nothing: [span null f] is [f ()], and {!merge}
    into or from it does nothing. It is shared by every worker domain
    and never mutated. *)

val create : unit -> t

val enabled : t -> bool
(** [false] exactly for {!null}. Instrumentation sites need it only to
    skip building arguments (attribute lists, instrument names) that a
    null recorder would discard. *)

val fork : t -> t
(** A fresh shard recorder, to merge back into the parent after the
    join; {!null} for {!null}. *)

val metrics : t -> Metrics.t

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val gauge_max : t -> string -> int -> unit
val observe : t -> string -> bounds:int array -> int -> unit

val span :
  t -> name:string -> ?attrs:(string * string) list -> now:(unit -> int) -> (unit -> 'a) -> 'a

val merge : t -> t -> unit
(** Absorb a shard recorder: metrics and trace aggregates merge
    order-independently. *)

val record_span :
  t -> name:string -> ?attrs:(string * string) list -> sim_start:int -> sim_end:int -> unit -> unit
(** One span whose bounds the caller already knows (see
    {!Trace.record}). *)

val event : t -> name:string -> ?attrs:(string * string) list -> at:int -> unit -> unit
(** A point on the simulated timeline (zero-duration span): handshake
    phases happen between clock ticks, so placement and count are the
    signal. *)

val metrics_json_string : t -> string
val trace_json_string : t -> string
