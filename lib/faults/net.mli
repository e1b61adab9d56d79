(** The resilient connection path: fault injection + bounded retries +
    funnel accounting around a single world connect. The implementation
    header documents the stream-isolation invariant (exactly one real
    world call per probe, at unmodified virtual time). *)

type t

val create : injector:Injector.t -> ?funnel:Funnel.t -> unit -> t
(** Every probe goes through an injector, and retries its faults under
    the injector's {!Injector.retry} policy; {!Profile.none}'s never
    fires, so each probe then makes exactly one attempt. [funnel] lets
    serial runs share one funnel across probes; defaults to a fresh
    private one. Each [t] carries its own per-operator circuit breaker. *)

val funnel : t -> Funnel.t

val attempt :
  t ->
  hostname:string ->
  now:int ->
  connect:(unit -> ('a, Simnet.World.connect_error) result) ->
  ('a * int, Fault.t * int) result
(** Run one probe operation; the [int] is the attempt count. [connect]
    is called exactly once (possibly as a discarded shadow call on
    retry exhaustion). *)
