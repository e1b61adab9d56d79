(** Aggregated trace spans over the scanner's hot paths. Spans aggregate
    on ingestion by (name, attributes): raw-span logs would dwarf the
    campaign archive. Aggregates merge order-independently (sums and
    min/max), like {!Metrics}. Simulated-clock durations are always
    recorded and deterministic; host-clock ([wall]) durations are opt-in
    and omitted from the rendering when disabled. *)

type t

val create : ?wall:bool -> unit -> t
(** [wall] (default false) additionally accumulates host-clock
    nanoseconds per span — inherently nondeterministic, so the
    deterministic artifacts keep it off. *)

val record :
  t ->
  name:string ->
  ?attrs:(string * string) list ->
  sim_start:int ->
  sim_end:int ->
  ?wall_ns:float ->
  unit ->
  unit

val timed : t -> name:string -> ?attrs:(string * string) list -> now:(unit -> int) -> (unit -> 'a) -> 'a
(** Run the thunk as one span: simulated duration from [now] read before
    and after (the span is recorded even if the thunk raises), host
    duration measured only when this collector has [wall] on. *)

val merge : t -> t -> unit

val schema : string
val to_json_string : t -> string
