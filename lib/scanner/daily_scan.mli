(** The longitudinal campaign of Sections 4.3-4.4: daily scans over nine
    weeks recording STEK identifiers and (EC)DHE server values — a
    default (all-suites, tickets-on) sweep and a DHE-only sweep per day.
    Domains absent from that day's list are skipped, so churn shows up in
    the data. {!Parallel_campaign.run} runs a campaign; this module owns
    its record types, the per-shard scan loop, the sweep schedule and
    the run log's codec: one encoder and one parser for each field group
    of a row (the domain fields and the day fields), shared by the CSV,
    the day blocks and the stream trailers, and one decoder that says a
    stream is whole ({!decode_stream}). Every day block is one a clean re-run
    reproduces byte for byte: a scan that raises leaves its stream
    unsealed, and nothing writes a block without probing. A campaign is
    read back from its log with {!load_stream} and exported to CSV (the
    scans.io analog) with {!save}; a run's {!t} comes from {!load} or
    {!load_stream}. *)

type day_record = {
  day : int;  (** day index from campaign start *)
  present : bool;
  default_ok : bool;
  stek_id : string option;
  ticket_hint : int option;
  ecdhe_value : string option;
  dhe_ok : bool;
  dhe_value : string option;
}

type domain_series = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;  (** ever presented a trusted chain *)
  stable : bool;
  days : day_record array;
}

type t = { start_day : int; n_days : int; series : domain_series array }

val sweep :
  ?obs:Obs.Recorder.t ->
  clock:Simnet.Clock.t ->
  default_probe:Probe.t ->
  dhe_probe:Probe.t ->
  domains:Simnet.World.domain array ->
  days:int ->
  ?progress:(int -> unit) ->
  on_default:(day:int -> int -> Observation.conn -> unit) ->
  on_dhe:(day:int -> int -> Observation.conn -> unit) ->
  end_day:(day:int -> present:int -> unit) ->
  unit ->
  unit
(** The daily sweep schedule, the one day loop of every daily scanner
    ({!scan_stream}, {!Cross_vantage}). For each of [days] days from
    [clock]'s current time: [progress day]; then the domains in that
    day's list, in array order, are probed with [default_probe] at
    00:30 (each observation, with the domain's index, to [on_default])
    and then with [dhe_probe] at 02:00 ([on_dhe]); then [end_day] with
    the day's count of listed domains. Both probes must read [clock].
    Leaves [clock] at the end of the last day. [obs] (default
    {!Obs.Recorder.null}) gets a [scan.day] span per day, the
    [scan.domain_days] counter and the [scan.days] gauge. *)

val scan_stream :
  sink:Stream_sink.stream ->
  obs:Obs.Recorder.t ->
  clock:Simnet.Clock.t ->
  default_probe:Probe.t ->
  dhe_probe:Probe.t ->
  domains:Simnet.World.domain array ->
  days:int ->
  progress:(int -> unit) ->
  unit
(** The campaign's per-shard loop: scan [domains] (in member order) for
    [days] days on the {!sweep} schedule, driving [clock]; both probes
    must read [clock] (create them with [?clock]) and share one funnel.
    Leaves [clock] at the campaign's end. {!Parallel_campaign.run} calls it once per shard,
    on a stream {!Stream_sink.stream} opened for a re-run.

    Each day's block is appended to [sink] as the day completes, and
    the stream's trailer (trust verdicts and the probes' funnel) is
    written at the end; the scan keeps no rows, which are read back
    with {!load_stream}. An exception from a probe or from [progress]
    propagates, leaving the stream unsealed for a resume to re-run. *)

val csv_header : string

val save : t -> string -> unit
(** Writes the campaign CSV through an internal buffer (large campaigns
    are hundreds of thousands of rows); weights are formatted so they
    round-trip exactly through {!load}. *)

val load : string -> (t, string) result
(** [Error] on a file without the durable checksum frame (or one whose
    frame fails), malformed rows, metadata declaring a non-positive
    [n_days], rows whose day index falls outside the declared range, and
    a (domain, day) that is missing or repeated — a file that
    contradicts its own metadata is reported, not silently repaired. *)

val decode_stream :
  n_days:int ->
  string ->
  string list ->
  string ->
  (domain_series list * Faults.Funnel.t, string) result
(** [decode_stream ~n_days name day_blocks trailer]: the one rule that
    says a stream of the run log is whole. The trailer must decode, the
    stream must hold [n_days] day blocks, and block [i] must decode as
    day [i] with one row per trailer member. Returns the members' series
    in stream order and the stream's loss funnel; an [Error] is one
    line naming stream [name] (and the day, for a day block).
    {!load_stream} reads every stream through it, and
    {!Parallel_campaign.run} keeps a sealed stream only if it passes. *)

val load_stream : string -> (t, string) result
(** Reassemble a campaign from the {!Stream_sink} directory a run
    wrote; its manifest gives [start_day], [n_days] and [n_domains].
    Series are sorted by (rank, domain), the world's order, so {!save}
    on the result is the campaign's CSV archive. An interrupted or
    damaged stream (spool without footer or trailer, or a block that
    fails its tag) is an [Error] naming the stream, never an exception;
    finish it by resuming the campaign. A stream {!decode_stream}
    refuses is an [Error] naming the stream (and the day). So is a log
    whose streams do not name exactly [n_domains] domains, each once:
    one missing a stream is not read as a smaller world. *)
