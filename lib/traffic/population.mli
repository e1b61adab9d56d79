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
    [Domain.recommended_domain_count ()]), and every result lands in a slot
    owned by one worker — so archives and merged telemetry are byte-identical at
    any [jobs], the same contract {!Scanner.Parallel_campaign} makes.

    {2 Streaming and resume}

    Each simulated day's rows are spooled to the run's {!Traffic_sink}
    as the day completes and nothing row-shaped is kept in memory: RSS
    is bounded by [jobs] × (one world replica + one shard's user state),
    independent of the total user count. Re-running into the same sink
    resumes under {!Scanner.Stream_sink.stream}'s rule: a shard whose
    spool is sealed for the whole run and decodes is kept with its bytes
    untouched (one that does not decode is refused), and any other is
    simulated again from day 0, each day checked against the block its
    spool recorded before anything is written, so re-running after a
    crash yields an archive byte-identical to an uninterrupted run. *)

(** How a user scopes resumption state (the Sy et al. axis): [Strict]
    keys the client store by exact hostname; [Cross_operator] shares
    tickets and sessions across all hostnames of one operator — faster
    (more abbreviated handshakes), but welding every property of the
    operator into one linkable identity. *)
type policy = Strict | Cross_operator

val policy_of_string : string -> (policy, string) result

type config = {
  users : int;
  days : int;
  shard_users : int;  (** users per shard; sharding depends only on this *)
  policy : policy;
  ticket_lifetime_cap : int;
      (** client-side cap on ticket reuse, seconds; 0 = honor the
          server's advertised hint alone *)
  store_capacity : int;  (** scopes per user's {!Tls.Client_store} *)
  pages_per_day : float;  (** mean page loads per user-day; finite *)
  world : Simnet.World.config;
}

val default_config : config
(** 10k users, 63 days (the paper's nine weeks), 16384-user shards,
    strict policy, advertised lifetimes, 32-scope stores, 2 pages/day
    over the default world. Every user also reuses a session ID for at
    most one day and loads at most 12 pages a day. *)

val manifest : config -> (string * string) list
(** A traffic run log's manifest: mode [traffic], the world's seed and
    size, the population's shape and policy. It pins everything the log
    means, so {!Scanner.Stream_sink.create} refuses to re-attach when
    any of these differ, and [Analysis.Tracking_report.of_sink] reads the
    run metadata back from it. *)

type result = {
  n_shards : int;
  total_rows : int;  (** rows written by this run; a kept shard adds none *)
}

val run :
  ?jobs:int ->
  sink:Scanner.Stream_sink.t ->
  ?obs:Obs.Recorder.t ->
  config ->
  result
(** Simulates every shard into its stream of [sink] and holds no rows;
    read them back through {!Traffic_sink} (a run that wants only the
    report passes a temporary sink, {!Scanner.Stream_sink.with_sink}). Raises
    on invalid configs; propagates shard exceptions (a crashed run can
    simply be re-run into the same sink — see resume above). [obs]
    defaults to {!Obs.Recorder.null}. *)
