(** Aggregated trace spans over the scanner's hot paths. Spans aggregate
    on ingestion by (name, attributes): raw-span logs would dwarf the
    campaign archive. Aggregates merge order-independently (sums and
    min/max), like {!Metrics}. Durations are on the simulated clock, so
    the rendering is deterministic. *)

type t

val create : unit -> t

val record :
  t ->
  name:string ->
  ?attrs:(string * string) list ->
  sim_start:int ->
  sim_end:int ->
  unit ->
  unit

val timed : t -> name:string -> ?attrs:(string * string) list -> now:(unit -> int) -> (unit -> 'a) -> 'a
(** Run the thunk as one span: simulated duration from [now] read before
    and after (the span is recorded even if the thunk raises). *)

val merge : t -> t -> unit

val schema : string
val to_json_string : t -> string
