(** Per-operator circuit breaker: after 5 consecutive injected-fault
    failures against one operator, the next 25 probes get a
    single-attempt retry budget instead of the full one.
    Success (or a ground-truth world error) closes the breaker. State
    advances only through {!attempts_allowed}/{!record} in probe order,
    so budgets are deterministic and jobs-invariant. *)

type t

val create : unit -> t

val attempts_allowed : t -> operator:string -> max_attempts:int -> int
(** The retry budget for the next probe against [operator] — 1 while the
    breaker is open (consuming one cooldown tick), [max_attempts]
    otherwise. Call exactly once per probe. *)

val record : t -> operator:string -> (unit, Fault.t) result -> unit
(** Feed a probe outcome back. Injected-fault exhaustion counts toward
    opening; success and world-level errors reset the operator. *)

val is_open : t -> operator:string -> bool
(** Whether [operator]'s breaker is currently open (for tests and
    reports); does not consume a cooldown tick. *)
