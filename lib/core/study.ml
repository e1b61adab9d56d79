(* End-to-end orchestration of the nine-week measurement study: builds
   (or receives) a world, runs every experiment in a paper-faithful
   order on the shared virtual clock, and memoizes the results so the
   per-table/per-figure entry points can be called in any order.

   Timeline (virtual days):
     day 0        — Table 1 bursts: 10 connections in quick succession,
                    once per cipher-suite offer (DHE-only, ECDHE-only,
                    default-with-tickets);
     day 1        — Figure 1: session-ID resumption-delay walk (24 h);
     day 2        — Figure 2: session-ticket resumption-delay walk (24 h);
     day 3        — Table 5: cross-domain session-cache probing;
                  — Table 6: STEK-group scans (10 connections over 6 h);
                  — Table 7: DH-group scans (DHE-only and ECDHE-only,
                    10 connections over 5 h);
     days 4..4+N  — the daily longitudinal campaign (Figures 3-5,
                    Tables 2-4), N = 63 by default;
     afterwards   — Figure 8 assembly and the Section 7.2 target
                    analysis, which use the collected data. *)

type config = {
  world_config : Simnet.World.config;
  campaign_days : int;
  jobs : int; (* campaign worker domains; the archive is identical at any count *)
  verbose : bool;
  fault_profile : Faults.Profile.t; (* [Profile.none] injects nothing *)
  retry : Faults.Retry.policy;
  obs : Obs.Recorder.t;
      (* telemetry shared by every experiment probe and the campaign;
         [Obs.Recorder.null] (the default) records nothing *)
}

let default_config =
  {
    world_config = Simnet.World.default_config;
    campaign_days = 63;
    jobs = 1;
    verbose = false;
    (* [none] never fires, so every probe makes exactly one attempt. *)
    fault_profile = Faults.Profile.none;
    retry = Faults.Retry.default;
    obs = Obs.Recorder.null;
  }

type t = {
  config : config;
  world : Simnet.World.t;
  mutable table1_bursts :
    (Scanner.Burst_scan.domain_result list
    * Scanner.Burst_scan.domain_result list
    * Scanner.Burst_scan.domain_result list)
    option; (* dhe, ecdhe, ticket *)
  mutable fig1_results : Scanner.Resumption_scan.domain_result list option;
  mutable fig2_results : Scanner.Resumption_scan.domain_result list option;
  mutable cross_probe : Scanner.Cross_probe.result option;
  mutable stek_groups_scan : Scanner.Burst_scan.domain_result list option;
  mutable dh_groups_scan : Scanner.Burst_scan.domain_result list option;
  mutable campaign : Scanner.Daily_scan.t option;
  injector : Faults.Injector.t;
  funnel : Faults.Funnel.t; (* shared loss telemetry across all experiments *)
}

let create ?(config = default_config) () =
  let world = Simnet.World.create ~config:config.world_config () in
  {
    config;
    world;
    table1_bursts = None;
    fig1_results = None;
    fig2_results = None;
    cross_probe = None;
    stek_groups_scan = None;
    dh_groups_scan = None;
    campaign = None;
    injector = Faults.Injector.create ~profile:config.fault_profile world;
    funnel = Faults.Funnel.create ();
  }

let world t = t.world
let campaign_days t = t.config.campaign_days

(* Every serial experiment probe shares the study's injector, retry
   policy and funnel; with the default [none] profile no fault fires
   and every probe makes exactly one attempt. *)
let probe ?offer_suites ?offer_ticket t ~seed =
  Scanner.Probe.create ?offer_suites ?offer_ticket ~injector:t.injector ~retry:t.config.retry
    ~funnel:t.funnel ~obs:t.config.obs ~seed t.world

let dhe_probe_of t ~seed =
  Scanner.Probe.dhe_only ~injector:t.injector ~retry:t.config.retry ~funnel:t.funnel
    ~obs:t.config.obs t.world ~seed

let ecdhe_probe_of t ~seed =
  Scanner.Probe.ecdhe_only ~injector:t.injector ~retry:t.config.retry ~funnel:t.funnel
    ~obs:t.config.obs t.world ~seed

let log t fmt =
  if t.config.verbose then Format.eprintf (fmt ^^ "@.") else Format.ifprintf Format.err_formatter fmt

let minute = Simnet.Clock.minute

(* --- Experiment runners (memoized) ------------------------------------------ *)

let table1_bursts t =
  match t.table1_bursts with
  | Some r -> r
  | None ->
      log t "study: table 1 burst scans";
      let dhe = dhe_probe_of t ~seed:"t1-dhe" in
      let r_dhe = Scanner.Burst_scan.run dhe ~rounds:10 ~gap:30 () in
      let ecdhe = ecdhe_probe_of t ~seed:"t1-ecdhe" in
      let r_ecdhe = Scanner.Burst_scan.run ecdhe ~rounds:10 ~gap:30 () in
      let default = probe t ~seed:"t1-ticket" in
      let r_ticket = Scanner.Burst_scan.run default ~rounds:10 ~gap:30 () in
      let r = (r_dhe, r_ecdhe, r_ticket) in
      t.table1_bursts <- Some r;
      r

(* Table 1's shared denominator. Trust is established by the default
   (all-suites) burst: the DHE-only and ECDHE-only bursts cannot judge
   domains that refuse their offer, so every block counts against the
   same browser-trusted set, as in the paper. *)
let table1_trusted t =
  let _, _, r_ticket = table1_bursts t in
  let trusted = Hashtbl.create 4096 in
  List.iter
    (fun (r : Scanner.Burst_scan.domain_result) ->
      if r.Scanner.Burst_scan.trusted && r.Scanner.Burst_scan.successes > 0 then
        Hashtbl.replace trusted r.Scanner.Burst_scan.domain ())
    r_ticket;
  fun (r : Scanner.Burst_scan.domain_result) -> Hashtbl.mem trusted r.Scanner.Burst_scan.domain

let fig1_results t =
  match t.fig1_results with
  | Some r -> r
  | None ->
      ignore (table1_bursts t);
      log t "study: figure 1 session-ID lifetime walk";
      let probe = probe ~offer_ticket:false t ~seed:"fig1" in
      let r = Scanner.Resumption_scan.run probe ~mode:Scanner.Resumption_scan.Session_ids () in
      t.fig1_results <- Some r;
      r

let fig2_results t =
  match t.fig2_results with
  | Some r -> r
  | None ->
      ignore (fig1_results t);
      log t "study: figure 2 session-ticket lifetime walk";
      let probe = probe t ~seed:"fig2" in
      let r = Scanner.Resumption_scan.run probe ~mode:Scanner.Resumption_scan.Tickets () in
      t.fig2_results <- Some r;
      r

let cross_probe t =
  match t.cross_probe with
  | Some r -> r
  | None ->
      ignore (fig2_results t);
      log t "study: table 5 cross-domain session-cache probing";
      let r =
        Scanner.Cross_probe.run ~injector:t.injector ~retry:t.config.retry ~funnel:t.funnel
          t.world ()
      in
      t.cross_probe <- Some r;
      r

let stek_groups_scan t =
  match t.stek_groups_scan with
  | Some r -> r
  | None ->
      ignore (cross_probe t);
      log t "study: table 6 STEK-group scans";
      let probe = probe t ~seed:"stek-groups" in
      (* 10 connections over a six-hour window, then one more 30 minutes
         later, like the paper's two-phase grouping. *)
      let r = Scanner.Burst_scan.run probe ~rounds:10 ~gap:(40 * minute) () in
      Simnet.Clock.advance (Simnet.World.clock t.world) (30 * minute);
      let extra = Scanner.Burst_scan.run probe ~rounds:1 ~gap:0 () in
      let merged =
        List.map2
          (fun (a : Scanner.Burst_scan.domain_result) (b : Scanner.Burst_scan.domain_result) ->
            { a with Scanner.Burst_scan.conns = a.Scanner.Burst_scan.conns @ b.Scanner.Burst_scan.conns })
          r extra
      in
      t.stek_groups_scan <- Some merged;
      merged

let dh_groups_scan t =
  match t.dh_groups_scan with
  | Some r -> r
  | None ->
      ignore (stek_groups_scan t);
      log t "study: table 7 Diffie-Hellman group scans";
      let dhe = dhe_probe_of t ~seed:"dh-groups" in
      let r_dhe = Scanner.Burst_scan.run dhe ~rounds:10 ~gap:(33 * minute) () in
      let ecdhe = ecdhe_probe_of t ~seed:"ecdh-groups" in
      let r_ecdhe = Scanner.Burst_scan.run ecdhe ~rounds:10 ~gap:(33 * minute) () in
      let merged =
        List.map2
          (fun (a : Scanner.Burst_scan.domain_result) (b : Scanner.Burst_scan.domain_result) ->
            { a with Scanner.Burst_scan.conns = a.Scanner.Burst_scan.conns @ b.Scanner.Burst_scan.conns })
          r_dhe r_ecdhe
      in
      t.dh_groups_scan <- Some merged;
      merged

let campaign t =
  match t.campaign with
  | Some r -> r
  | None ->
      ignore (dh_groups_scan t);
      (* Start the longitudinal campaign at the next day boundary. *)
      let clock = Simnet.World.clock t.world in
      let now = Simnet.Clock.now clock in
      Simnet.Clock.set clock ((now / Simnet.Clock.day * Simnet.Clock.day) + Simnet.Clock.day);
      log t "study: daily campaign (%d days, %d jobs)" t.config.campaign_days t.config.jobs;
      let r =
        Scanner.Parallel_campaign.collect ~jobs:t.config.jobs ~injector:t.injector
          ~retry:t.config.retry ~funnel:t.funnel ~obs:t.config.obs t.world
          ~days:t.config.campaign_days
          ~progress:(fun ~shard ~day ->
            (* Shard 0, the heaviest, starts first: its days pace the run. *)
            if shard = 0 then log t "study: campaign day %d" day)
      in
      t.campaign <- Some r;
      r

(* Run everything in order. *)
let run_all t = ignore (campaign t)

let funnel_report t =
  run_all t;
  Analysis.Funnel_report.render
    ~title:
      (Printf.sprintf "Section 3 funnel: probes, retries and losses (fault profile: %s)"
         t.config.fault_profile.Faults.Profile.name)
    t.funnel

(* --- Derived analyses --------------------------------------------------------- *)

let stek_spans t = Analysis.Lifetime.analyze ~field:Analysis.Lifetime.Stek (campaign t)
let dhe_spans t = Analysis.Lifetime.analyze ~field:Analysis.Lifetime.Dhe (campaign t)
let ecdhe_spans t = Analysis.Lifetime.analyze ~field:Analysis.Lifetime.Ecdhe (campaign t)

let session_cache_groups t =
  Analysis.Service_groups.session_cache_groups ~world:t.world (cross_probe t)

let stek_service_groups t = Analysis.Service_groups.stek_groups ~world:t.world (stek_groups_scan t)
let dh_service_groups t = Analysis.Service_groups.dh_groups ~world:t.world (dh_groups_scan t)

(* Restrict resumption-scan results to the analysis population. *)
let trusted_results results =
  List.filter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      r.Scanner.Resumption_scan.trusted && r.Scanner.Resumption_scan.https)
    results

(* The Figure 8 population is the paper's: domains in the list every day
   with a browser-trusted chain (291,643 in the paper); span analyses are
   already restricted the same way. *)
let stable_trusted_results results =
  List.filter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      r.Scanner.Resumption_scan.trusted && r.Scanner.Resumption_scan.https
      && r.Scanner.Resumption_scan.stable)
    results

let vulnerability_components t =
  Analysis.Vuln_window.assemble_components
    ~session_results:(stable_trusted_results (fig1_results t))
    ~ticket_results:(stable_trusted_results (fig2_results t))
    ~stek_spans:(stek_spans t) ~dhe_spans:(dhe_spans t) ~ecdhe_spans:(ecdhe_spans t)

let vulnerability_windows t =
  Analysis.Vuln_window.windows_of_components (vulnerability_components t)

let vuln_report t =
  Analysis.Vuln_report.render_harm
    (Analysis.Vuln_report.rank_operators ~world:t.world ~windows:(vulnerability_windows t))

let ascii_hour_ticks =
  [
    (60.0, "1m");
    (300.0, "5m");
    (1800.0, "30m");
    (3600.0, "1h");
    (14_400.0, "4h");
    (36_000.0, "10h");
    (64_800.0, "18h");
    (86_400.0, "24h");
  ]

let ascii_day_ticks =
  [
    (1.0, "1d");
    (2.0, "2d");
    (4.0, "4d");
    (7.0, "7d");
    (14.0, "14d");
    (21.0, "21d");
    (30.0, "30d");
    (45.0, "45d");
    (63.0, "63d");
  ]

let ascii_window_ticks =
  [
    (300.0, "5m");
    (3600.0, "1h");
    (86_400.0, "1d");
    (604_800.0, "7d");
    (2_592_000.0, "30d");
    (5_443_200.0, "63d");
  ]
