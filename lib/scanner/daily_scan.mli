(** The longitudinal campaign of Sections 4.3-4.4: daily scans over nine
    weeks recording STEK identifiers and (EC)DHE server values — a
    default (all-suites, tickets-on) sweep and a DHE-only sweep per day.
    Domains absent from that day's list are skipped, so churn shows up in
    the data. {!Parallel_campaign.run} runs a campaign; this module owns
    its record types, the per-shard scan loop, the sweep schedule and
    the run log's day-block codec. Every day block is one a clean re-run
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

val default_sweep_at : int
(** Offset into each study day of the default (all-suites, tickets-on)
    sweep: 00:30. *)

val dhe_sweep_at : int
(** Offset into each study day of the DHE-only sweep: 02:00. *)

val scan_stream :
  sink:Stream_sink.stream ->
  ?obs:Obs.Recorder.t ->
  clock:Simnet.Clock.t ->
  default_probe:Probe.t ->
  dhe_probe:Probe.t ->
  domains:Simnet.World.domain array ->
  days:int ->
  ?progress:(int -> unit) ->
  unit ->
  unit
(** The campaign's per-shard loop: scan [domains] (in member order) for
    [days] days at the {!default_sweep_at} and {!dhe_sweep_at} times of
    each day, driving [clock]; both probes must read [clock] (create
    them with [?clock]) and share one funnel. Leaves [clock] at the
    campaign's end. {!Parallel_campaign.run} calls it once per shard,
    on a stream {!Stream_sink.stream} opened for a re-run.

    Each day's block is appended to [sink] as the day completes, and
    the stream's trailer (trust verdicts and the probes' funnel) is
    written at the end; the scan keeps no rows, which are read back
    with {!load_stream}. An exception from a probe or from [progress]
    propagates, leaving the stream unsealed for a resume to re-run.
    [obs] defaults to {!Obs.Recorder.null}. *)

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

val trailer_funnel : string -> (Faults.Funnel.t, string) result
(** The loss funnel a stream's trailer carries: what a kept stream
    contributes to the campaign's funnel without probing. *)

val load_stream : string -> (t, string) result
(** Reassemble a campaign from the {!Stream_sink} directory a run
    wrote. Series are sorted by (rank, domain), the world's order, so
    {!save} on the result is the campaign's CSV archive. An interrupted
    or damaged stream (spool without footer or trailer, or a block that
    fails its tag) is an [Error] naming the stream, never an exception;
    finish it by resuming the campaign. A day block this build would
    not write (a day line other than [day=N], say) is an [Error] naming
    the stream and the day. *)
