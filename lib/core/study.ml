(* End-to-end orchestration of the nine-week measurement study: builds
   (or receives) a world, runs every experiment in a paper-faithful
   order on the shared virtual clock, and keeps each result so the
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
  }

type bursts = Scanner.Burst_scan.domain_result list

(* Each experiment is a lazy value that forces the one before it first,
   so whichever result is asked for, the experiments run once each and
   in the timeline's order on the shared virtual clock. *)
type t = {
  config : config;
  world : Simnet.World.t;
  funnel : Faults.Funnel.t; (* shared loss telemetry across all experiments *)
  table1_bursts : (bursts * bursts * bursts) Lazy.t; (* dhe, ecdhe, ticket *)
  fig1_results : Scanner.Resumption_scan.domain_result list Lazy.t;
  fig2_results : Scanner.Resumption_scan.domain_result list Lazy.t;
  cross_probe : Scanner.Cross_probe.result Lazy.t;
  stek_groups_scan : bursts Lazy.t;
  dh_groups_scan : bursts Lazy.t;
  campaign : Scanner.Daily_scan.t Lazy.t;
}

let minute = Simnet.Clock.minute

(* Two scans of the same domains, in the same order, as one: each
   domain's connections from [first], then those from [extra]. *)
let merge_conns (first : bursts) (extra : bursts) =
  List.map2
    (fun (a : Scanner.Burst_scan.domain_result) (b : Scanner.Burst_scan.domain_result) ->
      { a with Scanner.Burst_scan.conns = a.Scanner.Burst_scan.conns @ b.Scanner.Burst_scan.conns })
    first extra

let create ?(config = default_config) () =
  let world = Simnet.World.create ~config:config.world_config () in
  let injector =
    Faults.Injector.create ~profile:config.fault_profile ~retry:config.retry world
  in
  let funnel = Faults.Funnel.create () in
  let log fmt =
    if config.verbose then Format.eprintf (fmt ^^ "@.")
    else Format.ifprintf Format.err_formatter fmt
  in
  (* Every experiment probe shares the study's injector and funnel; with
     the default [none] profile no fault fires and every probe makes
     exactly one attempt. *)
  let probe ?offer_ticket seed = Scanner.Probe.create ?offer_ticket ~injector ~funnel ~seed world in
  let dhe_probe seed = Scanner.Probe.dhe_only ~injector ~funnel world ~seed in
  let ecdhe_probe seed = Scanner.Probe.ecdhe_only ~injector ~funnel world ~seed in
  let after prev run =
    lazy
      (ignore (Lazy.force prev);
       run ())
  in
  let table1_bursts =
    lazy
      (log "study: table 1 burst scans";
       let r_dhe = Scanner.Burst_scan.run (dhe_probe "t1-dhe") ~rounds:10 ~gap:30 () in
       let r_ecdhe = Scanner.Burst_scan.run (ecdhe_probe "t1-ecdhe") ~rounds:10 ~gap:30 () in
       let r_ticket = Scanner.Burst_scan.run (probe "t1-ticket") ~rounds:10 ~gap:30 () in
       (r_dhe, r_ecdhe, r_ticket))
  in
  let fig1_results =
    after table1_bursts (fun () ->
        log "study: figure 1 session-ID lifetime walk";
        Scanner.Resumption_scan.run
          (probe ~offer_ticket:false "fig1")
          ~mode:Scanner.Resumption_scan.Session_ids ())
  in
  let fig2_results =
    after fig1_results (fun () ->
        log "study: figure 2 session-ticket lifetime walk";
        Scanner.Resumption_scan.run (probe "fig2") ~mode:Scanner.Resumption_scan.Tickets ())
  in
  let cross_probe =
    after fig2_results (fun () ->
        log "study: table 5 cross-domain session-cache probing";
        Scanner.Cross_probe.run (probe "cross-probe") ())
  in
  let stek_groups_scan =
    after cross_probe (fun () ->
        log "study: table 6 STEK-group scans";
        let probe = probe "stek-groups" in
        (* 10 connections over a six-hour window, then one more 30 minutes
           later, like the paper's two-phase grouping. *)
        let r = Scanner.Burst_scan.run probe ~rounds:10 ~gap:(40 * minute) () in
        Simnet.Clock.advance (Simnet.World.clock world) (30 * minute);
        merge_conns r (Scanner.Burst_scan.run probe ~rounds:1 ~gap:0 ()))
  in
  let dh_groups_scan =
    after stek_groups_scan (fun () ->
        log "study: table 7 Diffie-Hellman group scans";
        let sweep probe = Scanner.Burst_scan.run probe ~rounds:10 ~gap:(33 * minute) () in
        let r_dhe = sweep (dhe_probe "dh-groups") in
        merge_conns r_dhe (sweep (ecdhe_probe "ecdh-groups")))
  in
  let campaign =
    after dh_groups_scan (fun () ->
        (* Start the longitudinal campaign at the next day boundary. *)
        let clock = Simnet.World.clock world in
        let now = Simnet.Clock.now clock in
        Simnet.Clock.set clock ((now / Simnet.Clock.day * Simnet.Clock.day) + Simnet.Clock.day);
        log "study: daily campaign (%d days, %d jobs)" config.campaign_days config.jobs;
        Scanner.Parallel_campaign.collect ~jobs:config.jobs ~injector ~funnel world
          ~days:config.campaign_days ~progress:(fun ~shard ~day ->
            (* Shard 0, the heaviest, starts first: its days pace the run. *)
            if shard = 0 then log "study: campaign day %d" day))
  in
  {
    config;
    world;
    funnel;
    table1_bursts;
    fig1_results;
    fig2_results;
    cross_probe;
    stek_groups_scan;
    dh_groups_scan;
    campaign;
  }

let world t = t.world
let campaign_days t = t.config.campaign_days
let table1_bursts t = Lazy.force t.table1_bursts

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

let fig1_results t = Lazy.force t.fig1_results
let fig2_results t = Lazy.force t.fig2_results
let campaign t = Lazy.force t.campaign

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
  Analysis.Service_groups.session_cache_groups ~world:t.world (Lazy.force t.cross_probe)

let stek_service_groups t =
  Analysis.Service_groups.stek_groups ~world:t.world (Lazy.force t.stek_groups_scan)

let dh_service_groups t =
  Analysis.Service_groups.dh_groups ~world:t.world (Lazy.force t.dh_groups_scan)

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
