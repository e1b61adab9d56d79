(** The simulated HTTPS Internet: a sampled, ranked Top Million whose
    domains are served by endpoints (SSL terminators / small farms)
    holding the mutable TLS secret state the paper measures — session
    caches, STEK managers, ephemeral key-exchange caches — possibly
    shared across many domains. See the implementation header and
    DESIGN.md for the population model and sampling weights. *)

type config = {
  seed : string;
  n_domains : int;  (** sampled population size (min 1500) *)
  region : Region.t;
      (** scan vantage point. A world is a pure function of
          [(config, region)]: the default region reproduces the paper's
          single-vantage world byte-for-byte, and any other region
          differs only in the configs of regionally-inconsistent
          operators (deterministic per-operator overrides). *)
}

val default_config : config
(** 10,000 domains, seed ["tlsharm"], the default region. Every world
    runs on the simulation crypto environment {!Tls.Config.sim_env}
    derived from its seed. *)

val start_time : int
(** Epoch seconds at which every world's clock starts: March 2 2016, the
    paper's first scan day. *)

type t
type domain
type endpoint

val min_domains : int
(** Smallest population the sampling model supports (1500); {!create}
    rejects smaller configs. CLI layers validate against this before
    building a world. *)

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] if [config.n_domains < min_domains]. *)

(** {2 Accessors} *)

val clock : t -> Clock.t
val env : t -> Tls.Config.env

val region : t -> Region.t
(** The vantage this world is observed from; stamped into every
    observation row the scanner produces against it. *)

val root_store : t -> Tls.Cert.root_store
val domains : t -> domain array
(** Sorted by rank. *)

val find_domain : t -> string -> domain option

val operator_stek : t -> string -> Tls.Stek_manager.t option
(** The shared STEK manager of a named operator (e.g. ["google"]), as an
    attacker who compromises that operator would hold it. *)

val domain_name : domain -> string
val domain_rank : domain -> int

val domain_weight : domain -> float
(** How many real Top Million domains this sample represents
    (Horvitz-Thompson weight; 1.0 for ranks 1..1000 and certainty
    samples). *)

val domain_operator : domain -> string
val domain_trusted : domain -> bool
val domain_has_https : domain -> bool
val domain_stable : domain -> bool
val mx_points_to_google : domain -> bool
val domain_ip : domain -> int
val domain_asn : domain -> int

val domain_misconfig : domain -> Profile.misconfig
(** Ground-truth misconfiguration effective at this world's region
    (base profile combined with any regional downgrade);
    {!Profile.well_configured} for HTTPS-less domains. *)

val in_list_on_day : domain -> day:int -> bool
(** Deterministic Alexa-churn membership. *)

val domain_shard_keys : t -> domain -> string list
(** Identifiers of the shared-secret-state components this domain's
    connections mutate (its endpoint — which subsumes the session-cache
    and pod edges — plus every STEK manager its farm uses, keyed by key
    material identity). Domains whose key sets are transitively connected
    must be scanned by the same worker; see
    {!Scanner.Parallel_campaign}. Empty for domains without HTTPS. *)

val domains_in_asn : t -> int -> string list
val domains_on_ip : t -> int -> string list

(** {2 Connecting} *)

type connect_error = No_such_domain | No_https | Connection_failed

val connect :
  ?clock:Clock.t ->
  t ->
  client:Tls.Client.t ->
  hostname:string ->
  offer:Tls.Client.offer ->
  (Tls.Engine.outcome, connect_error) result
(** One connection at the current virtual time: resolves the domain (or
    a modeled service host, e.g. a mail front-end), applies due process
    restarts, picks a farm process (no client affinity), and runs the
    handshake. [clock] substitutes for the world clock — a parallel
    campaign shard advances its own clock while only ever connecting to
    the endpoints of its shard. *)

val endpoint_info : t -> string -> (int * string) option
(** [(endpoint id, operator)] serving a hostname (web domain or modeled
    service host), if any — the coordinates the fault-injection layer
    keys outage windows and per-operator fault rates on. [None] exactly
    when [connect] could never reach an endpoint for this name. *)

val mx_host : t -> domain -> string option
(** The TLS mail front-end a domain's MX points at, when its provider is
    modeled (Google); connecting to it exercises the same STEK as the
    provider's web properties — the section 7.2 cross-protocol
    sharing. *)

val connect_service_host :
  ?clock:Clock.t ->
  t ->
  client:Tls.Client.t ->
  hostname:string ->
  offer:Tls.Client.offer ->
  (Tls.Engine.outcome, connect_error) result
