(** A probing client: one TLS connection against the simulated Internet,
    distilled into an {!Observation.conn}. Bulk settings (cached trust
    evaluation, no per-connection SKE verification) are documented in the
    implementation. *)

type t = {
  world : Simnet.World.t;
  client : Tls.Client.t;
  trust_cache : (string, bool) Hashtbl.t;
  env : Tls.Config.env;
  clock : Simnet.Clock.t;
  net : Faults.Net.t;
  obs : Obs.Recorder.t;
}

val create :
  ?offer_ticket:bool ->
  ?clock:Simnet.Clock.t ->
  ?injector:Faults.Injector.t ->
  ?funnel:Faults.Funnel.t ->
  ?obs:Obs.Recorder.t ->
  seed:string ->
  Simnet.World.t ->
  t
(** A probe offering every cipher suite. [clock] defaults to the world
    clock; a campaign gives each shard's probes a private clock instead.
    [injector] brings the fault schedule and the retry policy; it
    defaults to one with {!Faults.Profile.none}, under which every
    connection is a single attempt; [funnel] shares loss telemetry
    across probes of one run.
    [obs] (default {!Obs.Recorder.null}) collects probe counters and
    handshake-phase spans; it only reads outcomes, so the observation
    stream is the same whichever recorder the probe gets. *)

val funnel : t -> Faults.Funnel.t

val dhe_only :
  ?clock:Simnet.Clock.t ->
  ?injector:Faults.Injector.t ->
  ?funnel:Faults.Funnel.t ->
  ?obs:Obs.Recorder.t ->
  Simnet.World.t ->
  seed:string ->
  t

val ecdhe_only :
  ?clock:Simnet.Clock.t ->
  ?injector:Faults.Injector.t ->
  ?funnel:Faults.Funnel.t ->
  ?obs:Obs.Recorder.t ->
  Simnet.World.t ->
  seed:string ->
  t

val connect :
  ?offer:Tls.Client.offer -> t -> domain:string -> Observation.conn * Tls.Engine.outcome option
(** One probe operation at the probe clock's current virtual time:
    injected faults retry under the injector's policy, world-level errors
    are final and classified into the observation. *)

(** {2 Resumption state} *)

type resumable = { session : Tls.Session.t option; ticket : (int * string) option }

val resumable_of_outcome : Tls.Engine.outcome option -> resumable
val offer_session_id : resumable -> Tls.Client.offer option
val offer_ticket : resumable -> Tls.Client.offer option
