(** The campaign runner, at any worker count including 1.

    Cuts the world into connectivity shards along its shared-TLS-state
    edges (endpoint identity and STEK key material, unioned through
    {!Union_find}), then runs the standard daily-scan loop
    ({!Daily_scan.scan_stream}) over each shard with private probes and
    a private {!Simnet.Clock}, fanned over a {!Pool}. Shard composition
    and per-shard seeds depend only on the world, never on the worker
    count, so the run log is byte-identical for any [jobs]. Because every
    archived field is server-derived, the archive also equals what one
    pair of probes sweeping the whole world in rank order records (the
    golden-file test checks this) — see the implementation header.

    {!run} writes the campaign into a run log the caller opened (the
    CLI's [--stream-out] directory, which [resume] finishes); {!collect}
    is the one path for a caller that wants only the campaign: it runs
    into a temporary log and reads it back. *)

type shard = {
  shard_id : int;
  members : Simnet.World.domain array;  (** in world (rank) order *)
  weight : float;
      (** summed per-domain probe-cost estimate of the members: an HTTPS
          domain-day (two full handshakes) is weighted ~60x a no-HTTPS
          one (two refused connects) *)
  max_component : float;
      (** weight of the heaviest single connectivity component packed
          into this shard — the unsplittable lower bound on its size *)
}

val shards : Simnet.World.t -> shard array
(** The deterministic shard decomposition: connectivity components of
    {!Simnet.World.domain_shard_keys}, packed longest-processing-time
    first into [ceil (n / 128)] bins (no more than there are components) of
    balanced estimated cost, then numbered heaviest-first — the order
    the run queue drains them in. Components never split across shards;
    every world domain appears in exactly one shard; no shard exceeds
    twice the mean weight unless it holds a single component heavier
    than the mean. Depends only on the world, never on a worker
    count. *)

val run :
  ?jobs:int ->
  ?progress:(shard:int -> day:int -> unit) ->
  ?injector:Faults.Injector.t ->
  ?funnel:Faults.Funnel.t ->
  sink:Stream_sink.t ->
  ?obs:Obs.Recorder.t ->
  Simnet.World.t ->
  days:int ->
  unit ->
  unit
(** Runs the campaign over all shards with [jobs] workers (default
    [Domain.recommended_domain_count ()], clamped to the shard count;
    [jobs <= 1] runs sequentially on the calling domain). Workers drain
    the {!Pool} queue in heaviest-first shard order — work-stealing LPT
    scheduling, so adding workers never strands a straggler shard behind
    an idle pool. Leaves the world clock at the campaign's end. [progress] is
    called at the start of every (shard, day) that is scanned, from
    worker domains — keep it reentrant.

    Every shard writes its rows to its own stream of [sink]
    (["shard-0007"]) as its days complete; no shard holds rows in
    memory, and the campaign is read back with {!Daily_scan.load_stream}
    (a run that wants only the campaign calls {!collect}). The sink is
    also the run's resume log, opened under {!Stream_sink.stream}'s
    rule: a re-run into the same directory keeps every shard whose
    stream is sealed for the whole run and passes
    {!Daily_scan.decode_stream}, without scanning it, and takes its
    funnel from the stream's trailer (shards are state-isolated by
    construction, so skipping one cannot change another's results); a
    sealed stream that fails the decoder is refused as
    {!Stream_sink.Mismatch}; every other shard is scanned from day 0,
    each day checked against the block its stream recorded.

    A shard that raises fails the run, as a killed process would: no
    further shard starts, the workers are joined, the shard id goes to
    stderr and the first exception is re-raised ({!Stream_sink.Mismatch}
    as it is, naming its stream). The shard's stream stays unsealed, so
    re-running into the same sink finishes the campaign under the
    resume rule; raising from [progress] simulates such a crash.

    [injector] (default: {!Faults.Profile.none}, which never fires),
    with its retry policy, is shared across shards (its decisions are
    pure hashes, so sharing is race-free and worker-count invariant);
    each shard's probes record into a shard-private funnel, absorbed
    into [funnel] after the join in shard order — sums only, so totals
    are identical for any [jobs].

    [obs] (default {!Obs.Recorder.null}) receives telemetry through
    shard-private recorders ({!Obs.Recorder.fork}) merged after the
    join in shard order; the merge laws (counters sum, gauges
    max) make the merged metrics independent of [jobs]. Each scanned
    shard wraps its scan in a [campaign.shard] span. *)

val manifest : Simnet.World.t -> days:int -> (string * string) list
(** The run-log manifest {!Daily_scan.load_stream} reads: [start_day]
    (the world clock's day, so call it before the run), [n_days] and
    [n_domains]. *)

val collect :
  ?jobs:int ->
  ?progress:(shard:int -> day:int -> unit) ->
  ?injector:Faults.Injector.t ->
  ?funnel:Faults.Funnel.t ->
  ?obs:Obs.Recorder.t ->
  Simnet.World.t ->
  days:int ->
  Daily_scan.t
(** Run the campaign ({!run}, same arguments) into a temporary run log
    ({!Stream_sink.with_sink} with no directory, under {!manifest}) and
    read it back with {!Daily_scan.load_stream}; the log is removed
    when the campaign is loaded, or when the run raises. Raises
    [Failure] if the log does not read back. *)
