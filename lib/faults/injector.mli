(** The deterministic fault schedule: a pure function of (seed,
    endpoint, hostname, virtual time, attempt index). Stateless by
    design — enabling faults perturbs no existing Rng stream, and
    decisions are identical regardless of query order or worker
    count. *)

type decision =
  | Pass
  | Slow of int  (** handshake succeeds after this many extra seconds *)
  | Fault of Fault.t

type t

val create : ?seed:string -> profile:Profile.t -> ?retry:Retry.policy -> Simnet.World.t -> t
(** [seed] defaults to ["faults"]; it namespaces the whole fault
    timeline and is independent of the world seed. [retry] (default
    {!Retry.default}) is the policy every probe going through this
    injector retries its faults under. *)

val retry : t -> Retry.policy

val decide : t -> hostname:string -> time:int -> attempt:int -> decision
(** [Pass] without hashing anything when every rate for the serving
    operator is zero, as under {!Profile.none}. *)

val operator_of : t -> hostname:string -> string option
(** The operator serving [hostname], for per-operator accounting
    (circuit breaker); [None] for hostnames outside the world. *)

val endpoint_outage_at : t -> hostname:string -> time:int -> bool
(** Whether the endpoint serving [hostname] is inside a scheduled
    outage window at [time] (exposed for tests and analysis). *)

val outage_epoch : int
(** Outage scheduling granularity in seconds (windows never cross an
    epoch boundary). *)
