(** The client population runner: millions of simulated browser-like
    users driven over the virtual campaign window on OCaml 5 domains.

    {2 Sharding and determinism}

    Users are partitioned into fixed-size shards by user id — a function
    of the config alone, never of the worker count. Each shard
    instantiates its {e own} deterministic replica of the world from the
    shared config (worlds are pure functions of their config, so every
    replica is identical at creation) and simulates its users day by day
    on the replica's private clock: users within a shard interact
    through shared server state (session caches, STEK rotations) exactly
    as the population model intends, while users in different shards
    live in parallel replicas. Shards are drained by a
    {!Scanner.Pool} of [jobs] workers (default
    {!Scanner.Pool.default_jobs}), and every result lands in a slot
    owned by one worker — so archives and merged telemetry are byte-identical at
    any [jobs], the same contract {!Scanner.Parallel_campaign} makes.

    {2 Streaming and resume}

    With a {!Traffic_sink}, each simulated day's rows are spooled as the
    day completes and nothing row-shaped is kept in memory: RSS is
    bounded by [jobs] × (one world replica + one shard's user state),
    independent of the total user count. A shard whose spool is already
    complete for the whole run is skipped with its bytes untouched, so
    re-running after a crash yields an archive byte-identical to an
    uninterrupted run. Read a streamed run's rows back through
    {!Traffic_sink}. *)

(** How a user scopes resumption state (the Sy et al. axis): [Strict]
    keys the client store by exact hostname; [Cross_operator] shares
    tickets and sessions across all hostnames of one operator — faster
    (more abbreviated handshakes), but welding every property of the
    operator into one linkable identity. *)
type policy = Strict | Cross_operator

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result

type config = {
  users : int;
  days : int;
  shard_users : int;  (** users per shard; sharding depends only on this *)
  policy : policy;
  ticket_lifetime_cap : int;
      (** client-side cap on ticket reuse, seconds; 0 = honor the
          server's advertised hint alone *)
  session_lifetime : int;  (** client-side session-ID reuse bound, seconds *)
  store_capacity : int;  (** scopes per user's {!Tls.Client_store} *)
  pages_per_day : float;  (** mean page loads per user-day *)
  max_pages_per_day : int;
  world : Simnet.World.config;
}

val default_config : config
(** 10k users, 63 days (the paper's nine weeks), 16384-user shards,
    strict policy, advertised lifetimes, 32-scope stores, 2 pages/day
    over the default world. *)

type result = {
  n_shards : int;
  rows : Row.t list array;
      (** per shard, in event order; empty when streamed to a sink *)
  hosts : (string * Row.host_info) list;
      (** browsable domains with rank/weight/operator *)
  total_rows : int;
}

val run :
  ?jobs:int ->
  ?sink:Traffic_sink.t ->
  ?chaos:(shard:int -> day:int -> unit) ->
  ?obs:Obs.Recorder.t ->
  config ->
  result
(** Raises on invalid configs; propagates shard exceptions (a crashed
    run with a sink can simply be re-run — see resume above). [obs]
    defaults to {!Obs.Recorder.null}. *)
