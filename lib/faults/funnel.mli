(** Measurement-loss telemetry: per-scan-day counts of probes, attempts,
    retries, successes and per-cause losses — the live version of the
    paper's §3 funnel. Mutable and single-owner; parallel campaigns keep
    a funnel per shard and {!absorb} them after the join (sums only, so
    merge order cannot change totals). *)

type t

val create : unit -> t

val record_success : t -> day:int -> attempts:int -> slow:bool -> unit
(** One probe that produced an observation after [attempts] connection
    attempts; [slow] marks a slow-handshake draw that still beat the
    deadline. *)

val record_failure : t -> day:int -> attempts:int -> Fault.t -> unit
(** One probe lost to [fault] after [attempts] attempts. *)

val absorb : t -> t -> unit
(** [absorb dst src] adds [src]'s counts into [dst]. *)

type totals = {
  t_probes : int;
  t_attempts : int;
  t_retries : int;
  t_successes : int;
  t_recovered : int;  (** succeeded after at least one faulted attempt *)
  t_slow : int;
  t_losses : (Fault.t * int) list;  (** non-zero causes, in {!Fault.all} order *)
}

val days : t -> int list
(** Days with any recorded probe, ascending (absolute day indices). *)

val day_totals : t -> day:int -> totals
val totals : t -> totals

val lost : totals -> int
(** Total probes lost across all causes. *)

val to_lines : t -> string list
(** Deterministic line serialization for campaign stream trailers, from
    which a kept stream restores its funnel: equal funnels produce equal
    lines (days ascending, losses in {!Fault.all} order). *)

val of_lines : string list -> (t, string) result
(** Inverse of {!to_lines}; never raises on malformed input. *)
