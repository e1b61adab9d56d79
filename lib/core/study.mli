(** End-to-end orchestration of the nine-week measurement study: builds a
    world, runs every experiment in a paper-faithful order on the shared
    virtual clock (point experiments on days 0-2, the longitudinal
    campaign from day 3), and memoizes results so the per-table/figure
    entry points can be called in any order. *)

type config = {
  world_config : Simnet.World.config;
  campaign_days : int;  (** 63 in the paper *)
  jobs : int;
      (** worker domains for the longitudinal campaign, which always
          runs through {!Scanner.Parallel_campaign}. The archive is
          byte-identical at any job count: every recorded field is
          server-derived. Default 1. *)
  verbose : bool;  (** progress on stderr *)
  fault_profile : Faults.Profile.t;
      (** the injector every probe goes through. [Faults.Profile.none]
          (the default) never fires, so probes make exactly one
          attempt. *)
  retry : Faults.Retry.policy;
      (** probe retry policy; only consulted when a fault fires *)
  obs : Obs.Recorder.t;
      (** telemetry (default {!Obs.Recorder.null}) shared by every
          experiment probe and the campaign runners. Recorders only read
          outcomes, so every archive is the same whichever recorder the
          study gets. *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val of_world : ?config:config -> Simnet.World.t -> t
val world : t -> Simnet.World.t
val campaign_days : t -> int

val funnel : t -> Faults.Funnel.t
(** The shared measurement-loss telemetry every experiment probe records
    into. *)

val run_all : t -> unit
(** Force every experiment now (they otherwise run lazily on demand). *)

val funnel_report : t -> string
(** Forces all experiments, then renders the §3-style per-day loss
    funnel. *)

(** {2 Raw experiment results (memoized)} *)

val table1_bursts :
  t ->
  Scanner.Burst_scan.domain_result list
  * Scanner.Burst_scan.domain_result list
  * Scanner.Burst_scan.domain_result list
(** DHE-only, ECDHE-only and default (ticket) 10-connection bursts. *)

val table1_trusted : t -> Scanner.Burst_scan.domain_result -> bool
(** Table 1's shared denominator: whether a burst result's domain
    completed a browser-trusted handshake in the default (all-suites)
    burst. Every Table 1 block counts against this one set. *)

val fig1_results : t -> Scanner.Resumption_scan.domain_result list
val fig2_results : t -> Scanner.Resumption_scan.domain_result list
val cross_probe : t -> Scanner.Cross_probe.result
val stek_groups_scan : t -> Scanner.Burst_scan.domain_result list
val dh_groups_scan : t -> Scanner.Burst_scan.domain_result list
val campaign : t -> Scanner.Daily_scan.t
(** The daily campaign, written to a temporary run log and read back
    from it; the log is removed once loaded. *)

(** {2 Derived analyses} *)

val stek_spans : t -> Analysis.Lifetime.domain_spans list
val dhe_spans : t -> Analysis.Lifetime.domain_spans list
val ecdhe_spans : t -> Analysis.Lifetime.domain_spans list
val session_cache_groups : t -> Analysis.Service_groups.group list
val stek_service_groups : t -> Analysis.Service_groups.group list
val dh_service_groups : t -> Analysis.Service_groups.group list

val trusted_results :
  Scanner.Resumption_scan.domain_result list -> Scanner.Resumption_scan.domain_result list

val stable_trusted_results :
  Scanner.Resumption_scan.domain_result list -> Scanner.Resumption_scan.domain_result list

val vulnerability_components :
  t -> (string * int * float * Analysis.Vuln_window.components) list
(** Per-domain exposure components over the paper's analysis population
    (stable, browser-trusted domains). *)

val vulnerability_windows : t -> Analysis.Vuln_window.window list

val operator_harms : t -> Analysis.Vuln_report.operator_harm list
(** Operators ranked by combined harm: HT-weighted vulnerability-window
    days scaled by misconfiguration severity. Forces the study. *)

val vuln_report : t -> string
(** Rendered {!operator_harms} table. *)

(** {2 Axis ticks for the ASCII figures} *)

val ascii_hour_ticks : (float * string) list
val ascii_day_ticks : (float * string) list
val ascii_window_ticks : (float * string) list
