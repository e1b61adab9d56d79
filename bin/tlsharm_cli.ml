(* tlsharm — command-line interface to the reproduction.

     tlsharm world-info                summarize the simulated population
     tlsharm scan --mode burst         run one scan, emit CSV observations
     tlsharm reproduce                 run the full study, print every
                                       table and figure
     tlsharm experiment t1 f8 google   selected experiments
     tlsharm campaign                  daily longitudinal campaign: a CSV
                                       exported from its run log, or the
                                       log itself (--stream-out); --regions
                                       N probes from N vantage regions
     tlsharm resume DIR                continue a killed --stream-out campaign
     tlsharm analyze PATH              re-analyze a campaign or traffic archive
     tlsharm vuln-report               rank operators by combined harm
     tlsharm posture [DOMAIN...]       grade sites' forward-secrecy posture
     tlsharm traffic                   client population: resumption latency
                                       saved vs tracking exposure
     tlsharm metrics-report FILE       render --metrics-out/--trace-out JSON
     tlsharm attack-demo               end-to-end stolen-secret decryptions
     tlsharm fuzz                      mutated transcripts through every
                                       peer-facing decoder

   Flags shared by several commands (world size and seed, campaign
   length, workers, fault injection, telemetry, the study) are declared
   once each, below, as a cmdliner term that parses and validates them.
   A bad value is a one-line usage error before any world is built, and
   no command body checks a flag again. *)

open Cmdliner

let ( let* ) = Result.bind

(* --- Flag rules ---------------------------------------------------------------- *)

(* Each rule serves both its flag's term and [resume]'s manifest
   decoder, so a run log is held to exactly what the flags accept.
   Sizing mistakes come back as one-line errors, not as an
   [Invalid_argument] backtrace from deep inside the world builder. *)
let at_least flag min v =
  if v < min then Error (Printf.sprintf "%s must be at least %d (got %d)" flag min v) else Ok v

let world_of ~domains ~seed =
  let* n_domains = at_least "--domains" Simnet.World.min_domains domains in
  Ok { Simnet.World.default_config with Simnet.World.n_domains; seed }

(* An output file is checked before any work: a scan of many days must
   not end in a write that could never succeed. *)
let writable_file path =
  let parent = Filename.dirname path in
  match Unix.access parent [ Unix.W_OK; Unix.X_OK ] with
  | () when Sys.is_directory parent ->
      if Sys.file_exists path && Sys.is_directory path then
        Error (Printf.sprintf "%s: is a directory" path)
      else Ok path
  | () | (exception Unix.Unix_error _) ->
      Error (Printf.sprintf "%s: %s is not a writable directory" path parent)

let faults_of ~profile ~retries ~deadline =
  match Faults.Profile.of_name profile with
  | None ->
      Error
        (Printf.sprintf "unknown fault profile %S (available: %s)" profile
           (String.concat " " Faults.Profile.names))
  | Some p ->
      let* max_attempts = at_least "--retries" 1 retries in
      let* deadline = at_least "--probe-deadline" 1 deadline in
      Ok (p, { Faults.Retry.default with Faults.Retry.max_attempts; deadline })

(* --- Shared flag terms --------------------------------------------------------- *)

let checked rule arg = Term.(term_result' (const rule $ arg))

let world_t =
  let domains =
    Arg.(value & opt int 4000 & info [ "domains" ] ~docv:"N" ~doc:"Sampled world size.")
  in
  let seed = Arg.(value & opt string "tlsharm" & info [ "seed" ] ~docv:"SEED" ~doc:"World seed.") in
  Term.(term_result' (const (fun domains seed -> world_of ~domains ~seed) $ domains $ seed))

let days_t =
  checked (at_least "--days" 1)
    Arg.(value & opt int 63 & info [ "days" ] ~docv:"DAYS" ~doc:"Campaign length in days.")

let jobs_t =
  checked (at_least "--jobs" 1)
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "TLSHARM_JOBS")
          ~doc:
            "Worker domains for the longitudinal campaign (default \\$(b,TLSHARM_JOBS) or 1). The \
             campaign is operator-sharded at any N, and its archive is byte-identical for every N.")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Progress on stderr.")

(* The fault profile and the resolved retry policy. *)
let faults_t =
  let profile =
    Arg.(
      value
      & opt string "none"
      & info [ "fault-profile" ] ~docv:"PROFILE"
          ~doc:
            "Fault-injection profile for the simulated network: $(b,none) (no injected faults, \
             every probe makes one attempt; the default), $(b,default) (\u{00a7}3-plausible \
             transient faults and endpoint outage windows), $(b,flaky) (hostile network for \
             stress tests) or $(b,byzantine) (default-profile weather plus peers answering with \
             malformed or protocol-violating bytes). Deterministic in the world and fault seeds.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Maximum connection attempts per probe (first attempt included). Only injected \
             faults retry; default 3 when a fault profile is active.")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "probe-deadline" ] ~docv:"SECS"
          ~doc:
            "Per-probe retry deadline in virtual seconds on the probe's own backoff clock \
             (default 60).")
  in
  let resolve profile retries deadline =
    let d = Faults.Retry.default in
    faults_of ~profile
      ~retries:(Option.value retries ~default:d.Faults.Retry.max_attempts)
      ~deadline:(Option.value deadline ~default:d.Faults.Retry.deadline)
  in
  Term.(term_result' (const resolve $ profile $ retries $ deadline))

type telemetry = { metrics_out : string option; trace_out : string option }

let telemetry_t =
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write campaign metrics (counters, gauges, histograms) as JSON. Telemetry only reads \
             outcomes — the observation archive is byte-identical with or without it — and the \
             metrics content is schedule-determined, so the JSON is identical for any --jobs. \
             Render with $(b,tlsharm metrics-report).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write aggregated trace spans (handshake phases, scan days, campaign shards) as JSON, \
             timed on the simulated clock. Unlike metrics, spans reflect how the run executed: a \
             campaign resumed from its --stream-out log has no probe spans for the shards it \
             restores.")
  in
  Term.(const (fun metrics_out trace_out -> { metrics_out; trace_out }) $ metrics_out $ trace_out)

let study_t =
  let config world_config campaign_days jobs verbose (fault_profile, retry) =
    {
      Tlsharm.Study.world_config;
      campaign_days;
      jobs;
      verbose;
      fault_profile;
      retry;
      obs = Obs.Recorder.null;
    }
  in
  Term.(const config $ world_t $ days_t $ jobs_t $ verbose_t $ faults_t)

(* --- Running commands ---------------------------------------------------------- *)

(* Every command body returns [(unit, string) result]; an [Error] is
   the one line cmdliner prints before exiting nonzero. *)
let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) (Term.term_result' term)

(* Last-resort net for exceptions no specific check anticipated
   (filesystem errors, corrupt inputs, a resume that diverges from its
   run log): one line and a nonzero exit instead of a backtrace. *)
let guard f =
  try f () with
  | Durable.Supervisor.Mismatch m -> Error ("resume mismatch: " ^ m)
  | Sys_error e | Invalid_argument e | Failure e -> Error e
  | Unix.Unix_error (err, fn, arg) ->
      Error
        (Printf.sprintf "%s: %s%s" fn (Unix.error_message err)
           (if arg = "" then "" else " (" ^ arg ^ ")"))

(* Telemetry is recorded only when some flag asks for it. *)
let telemetry_on t = t.metrics_out <> None || t.trace_out <> None
let recorder t = if telemetry_on t then Obs.Recorder.create () else Obs.Recorder.null

(* Kernel counters are process-global; the [kernel_before] snapshot
   scopes the published [kernel.*] deltas to the run itself (excluding
   world construction, which precedes it). *)
let write_telemetry ~what t obs ~kernel_before =
  Option.iter
    (fun path ->
      Obs.Kernel.add_to_metrics (Obs.Recorder.metrics obs)
        (Obs.Kernel.diff ~before:kernel_before ~after:(Obs.Kernel.snapshot ()));
      Durable.Atomic_io.write path (Obs.Recorder.metrics_json_string obs);
      Printf.printf "wrote %s metrics to %s\n" what path)
    t.metrics_out;
  Option.iter
    (fun path ->
      Durable.Atomic_io.write path (Obs.Recorder.trace_json_string obs);
      Printf.printf "wrote %s trace spans to %s\n" what path)
    t.trace_out

(* The funnel report accompanies every run whose profile can fire. *)
let faults_enabled profile = profile.Faults.Profile.name <> "none"

(* --- world-info ------------------------------------------------------------------ *)

let world_info config =
  let world = Simnet.World.create ~config () in
  let ds = Simnet.World.domains world in
  let wsum f =
    Array.fold_left (fun acc d -> if f d then acc +. Simnet.World.domain_weight d else acc) 0.0 ds
  in
  let total = wsum (fun _ -> true) in
  Printf.printf "sampled domains:        %d (representing %.0f)\n" (Array.length ds) total;
  Printf.printf "https:                  %.1f%%\n" (100.0 *. wsum Simnet.World.domain_has_https /. total);
  Printf.printf "browser-trusted https:  %.1f%%\n" (100.0 *. wsum Simnet.World.domain_trusted /. total);
  Printf.printf "stable (always listed): %.1f%%\n" (100.0 *. wsum Simnet.World.domain_stable /. total);
  Printf.printf "mx at google:           %.1f%%\n"
    (100.0 *. wsum Simnet.World.mx_points_to_google /. total);
  let by_op = Hashtbl.create 64 in
  Array.iter
    (fun d ->
      let op = Simnet.World.domain_operator d in
      if not (String.length op > 5 && String.sub op 0 5 = "site:") then
        Hashtbl.replace by_op op
          (Simnet.World.domain_weight d +. Option.value ~default:0.0 (Hashtbl.find_opt by_op op)))
    ds;
  let ops =
    Hashtbl.fold (fun op w acc -> (op, w) :: acc) by_op []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.printf "\nlargest operators (weighted domains):\n";
  List.iteri
    (fun i (op, w) -> if i < 12 && op <> "tail" then Printf.printf "  %-16s %8.0f\n" op w)
    ops;
  Printf.printf "\nnamed case-study domains: %d\n" (List.length Simnet.Notable.all);
  Ok ()

let world_info_cmd =
  cmd "world-info" ~doc:"Summarize the simulated population." Term.(const world_info $ world_t)

(* --- scan ---------------------------------------------------------------------------- *)

let scan config (profile, retry) mode out =
  guard @@ fun () ->
  let world = Simnet.World.create ~config () in
  let injector = Faults.Injector.create ~profile world in
  let funnel = Faults.Funnel.create () in
  let conns =
    match mode with
    | `Burst ->
        let probe = Scanner.Probe.create ~injector ~retry ~funnel ~seed:"cli-burst" world in
        Scanner.Burst_scan.run probe ~rounds:10 ~gap:30 ()
        |> List.concat_map (fun (r : Scanner.Burst_scan.domain_result) -> r.Scanner.Burst_scan.conns)
    | `Dhe ->
        let probe = Scanner.Probe.dhe_only ~injector ~retry ~funnel world ~seed:"cli-dhe" in
        Scanner.Burst_scan.run probe ~rounds:1 ~gap:0 ()
        |> List.concat_map (fun (r : Scanner.Burst_scan.domain_result) -> r.Scanner.Burst_scan.conns)
    | `Single ->
        let probe = Scanner.Probe.create ~injector ~retry ~funnel ~seed:"cli-single" world in
        Scanner.Burst_scan.run probe ~rounds:1 ~gap:0 ()
        |> List.concat_map (fun (r : Scanner.Burst_scan.domain_result) -> r.Scanner.Burst_scan.conns)
  in
  (match out with
  | Some path ->
      Scanner.Observation.write_csv path conns;
      Printf.printf "wrote %d observations to %s\n" (List.length conns) path
  | None ->
      print_endline Scanner.Observation.csv_header;
      List.iter (fun c -> print_endline (Scanner.Observation.to_csv_row c)) conns);
  if faults_enabled profile then
    print_string (Analysis.Funnel_report.render ~title:"Scan loss funnel" funnel);
  Ok ()

let scan_cmd =
  let mode =
    Arg.(
      value
      & opt (enum [ ("single", `Single); ("burst", `Burst); ("dhe", `Dhe) ]) `Single
      & info [ "mode" ] ~docv:"MODE" ~doc:"single | burst | dhe")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"CSV output path.")
  in
  cmd "scan" ~doc:"Run one scan over the simulated Top Million; emit CSV observations."
    Term.(const scan $ world_t $ faults_t $ mode $ out)

(* --- reproduce / experiment ----------------------------------------------------------- *)

let experiments =
  Tlsharm.Experiments.by_name
  @ [
      ( "google",
        fun st ->
          let a = Tlsharm.Target_analysis.analyze st ~operator:"google" ~flagship:"google.com" in
          Tlsharm.Target_analysis.report a
          ^ "\n"
          ^ Tlsharm.Target_analysis.static_stek_contrast st ~flagship:"yandex.ru" );
      ("ablations", Tlsharm.Mitigations.report);
      ("tls13", Tlsharm.Tls13_projection.report);
    ]

(* Ids resolve before any world is built: a typo costs nothing. *)
let experiment_ids_t =
  let ids =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            (Printf.sprintf "Experiment ids (%s)." (String.concat ", " (List.map fst experiments))))
  in
  let rec resolve = function
    | [] -> Ok []
    | id :: rest -> (
        match List.assoc_opt id experiments with
        | None ->
            Error
              (Printf.sprintf "unknown experiment %S (available: %s)" id
                 (String.concat " " (List.map fst experiments)))
        | Some f ->
            let* fs = resolve rest in
            Ok (f :: fs))
  in
  checked (function [] -> Ok (List.map snd experiments) | ids -> resolve ids) ids

let run_experiments config selected =
  guard @@ fun () ->
  let study = Tlsharm.Study.create ~config () in
  List.iter (fun f -> print_endline (f study)) selected;
  Ok ()

let experiment_cmd =
  cmd "experiment" ~doc:"Run selected experiments of the study."
    Term.(const run_experiments $ study_t $ experiment_ids_t)

let reproduce_cmd =
  cmd "reproduce" ~doc:"Run the full study and print every table and figure."
    Term.(const run_experiments $ study_t $ const (List.map snd experiments))

(* --- campaign / resume / analyze ------------------------------------------------------- *)

(* The stream manifest pins everything [resume] needs to rebuild the
   identical run and everything the streamed bytes depend on: world
   parameters, campaign shape, the resolved retry policy (not the raw
   flags, so flag defaults can change without orphaning old run logs)
   and the day range the loader reads. Not the worker count: archives
   are identical at any --jobs. *)
let campaign_manifest ~(world : Simnet.World.config) ~days ~faults ~start_day =
  let profile, (retry : Faults.Retry.policy) = faults in
  [
    ("mode", "campaign");
    ("seed", world.Simnet.World.seed);
    ("n_domains", string_of_int world.Simnet.World.n_domains);
    ("days", string_of_int days);
    ("fault_profile", profile.Faults.Profile.name);
    ("retries", string_of_int retry.Faults.Retry.max_attempts);
    ("deadline", string_of_int retry.Faults.Retry.deadline);
    ("start_day", string_of_int start_day);
    ("n_days", string_of_int days);
  ]

(* [campaign_manifest]'s inverse, held to the flags' own rules. The
   day range needs no decoding: [Stream_sink.create] re-attaches only
   to an identical manifest. *)
let campaign_of_manifest kvs =
  let missing = "manifest is missing campaign fields" in
  let field k = Option.to_result ~none:missing (List.assoc_opt k kvs) in
  let int_field k =
    let* v = field k in
    Option.to_result ~none:missing (int_of_string_opt v)
  in
  let* mode = field "mode" in
  if mode <> "campaign" then Error (Printf.sprintf "cannot resume mode %S" mode)
  else
    let* seed = field "seed" in
    let* domains = int_field "n_domains" in
    let* days = int_field "days" in
    let* profile = field "fault_profile" in
    let* retries = int_field "retries" in
    let* deadline = int_field "deadline" in
    let* world = world_of ~domains ~seed in
    let* days = at_least "--days" 1 days in
    let* faults = faults_of ~profile ~retries ~deadline in
    Ok (world, days, faults)

(* The campaign runner shared by [campaign] and [resume]: both must
   execute the identical code path for the resumed archive to come out
   byte-identical to an uninterrupted run. Telemetry rides alongside:
   the recorder only reads outcomes, so enabling it cannot change the
   archive, and its metrics are restricted to schedule-determined
   quantities, so the rendered metrics JSON is identical for any
   --jobs. *)
let run_campaign ~world:config ~days ~jobs ~output ~faults ~telemetry () =
  let profile, retry = faults in
  let world = Simnet.World.create ~config () in
  let injector = Faults.Injector.create ~profile world in
  let funnel = Faults.Funnel.create () in
  let obs = recorder telemetry in
  let start_day = Simnet.Clock.now (Simnet.World.clock world) / Simnet.Clock.day in
  (* Every campaign writes its run log: into --stream-out's directory,
     which a killed run resumes from, or, for a CSV archive, into a
     temporary one the CSV is exported from. Rows are appended per
     completed day and never held in memory. *)
  let dir = match output with `Stream dir -> Some dir | `Csv _ -> None in
  let domains = Array.length (Simnet.World.domains world) in
  let jobs_note = if jobs > 1 then Printf.sprintf " (%d jobs)" jobs else "" in
  let* () =
    Scanner.Stream_sink.with_sink ?dir
      ~manifest:(campaign_manifest ~world:config ~days ~faults ~start_day)
      (fun sink ->
        let kernel_before = Obs.Kernel.snapshot () in
        Scanner.Parallel_campaign.run ~jobs ~injector ~retry ~funnel ~sink ~obs world ~days ();
        write_telemetry ~what:"campaign" telemetry obs ~kernel_before;
        match output with
        | `Stream dir ->
            Printf.printf "streamed %d-day campaign over %d domains to %s (%d rows)%s\n" days
              domains dir
              (Scanner.Stream_sink.rows_written sink)
              jobs_note;
            Ok ()
        | `Csv out ->
            let* t = Scanner.Daily_scan.load_stream (Scanner.Stream_sink.dir sink) in
            Scanner.Daily_scan.save t out;
            Printf.printf "wrote %d-day campaign over %d domains to %s%s\n" days domains out
              jobs_note;
            Ok ())
  in
  if faults_enabled profile then
    print_string
      (Analysis.Funnel_report.render
         ~title:
           (Printf.sprintf "Campaign loss funnel (fault profile: %s)" profile.Faults.Profile.name)
         funnel);
  Ok ()

(* The cross-vantage path of [campaign --regions N]: one world per
   region, the same domain-days probed from each, archived as a single
   observation CSV with a region column. Region scans are independent,
   so the archive is byte-identical at any --jobs. *)
let run_cross_vantage ~world ~days ~jobs ~regions ~out () =
  let cv =
    Scanner.Cross_vantage.run ~jobs
      { Scanner.Cross_vantage.base = world; regions = Simnet.Region.take regions; days }
  in
  Scanner.Cross_vantage.save cv out;
  Printf.printf "wrote %d-day cross-vantage scan from %d regions (%s) to %s (%d rows)%s\n" days
    regions
    (String.concat " " (Scanner.Cross_vantage.regions cv))
    out
    (List.length (Scanner.Cross_vantage.rows cv))
    (if jobs > 1 then Printf.sprintf " (%d jobs)" jobs else "");
  Ok ()

let campaign world days jobs = function
  | `Cross (regions, out) -> guard (run_cross_vantage ~world ~days ~jobs ~regions ~out)
  | `Single (output, faults, telemetry) ->
      guard (run_campaign ~world ~days ~jobs ~output ~faults ~telemetry)

(* What [campaign] runs: the single-vantage campaign with its output,
   faults and telemetry, or (--regions N > 1) the cross-vantage scan,
   which takes none of the single-vantage extras. *)
let campaign_run_t =
  let regions =
    let n = List.length Simnet.Region.all in
    checked
      (fun r ->
        if r < 1 || r > n then
          Error (Printf.sprintf "--regions must be between 1 and %d (got %d)" n r)
        else Ok r)
      Arg.(
        value
        & opt int 1
        & info [ "regions" ] ~docv:"N"
            ~doc:
              (Printf.sprintf
                 "With N > 1, probe the same domain-days from the first N of the %d modeled \
                  vantage regions (%s) instead of running the single-vantage campaign, and \
                  archive the per-region observation rows (with a region column) as one CSV. \
                  Regions are independent, so the archive is byte-identical at any --jobs."
                 n Simnet.Region.names))
  in
  let out =
    Arg.(
      value
      & opt string "campaign.csv"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Campaign CSV output path.")
  in
  let stream_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stream-out" ] ~docv:"DIR"
          ~doc:
            "Keep the run log in $(i,DIR): each completed day's rows are appended there (one \
             append-only spool per campaign shard) instead of to a temporary directory that the \
             CSV is exported from and that is removed when the run ends. Memory stays flat \
             regardless of --domains either way. $(i,DIR) is also the run's crash-recovery \
             log: every day block carries the scan's resume state, and $(b,tlsharm resume) \
             $(i,DIR) continues a killed run from the last block that verifies. A $(i,DIR) \
             holding a different run is refused. The streamed archive is byte-equivalent to \
             the CSV one: $(b,tlsharm analyze) $(i,DIR) reassembles it, and it is identical at \
             any --jobs and across resumes.")
  in
  let select regions out faults stream_out telemetry =
    if regions = 1 then
      match stream_out with
      | Some dir -> Ok (`Single (`Stream dir, faults, telemetry))
      | None -> Result.map (fun out -> `Single (`Csv out, faults, telemetry)) (writable_file out)
    else if
      stream_out <> None || telemetry_on telemetry || faults_enabled (fst faults)
    then
      Error
        "--regions > 1 runs the cross-vantage scan, which does not support --stream-out, \
         --metrics-out, --trace-out or --fault-profile"
    else Result.map (fun out -> `Cross (regions, out)) (writable_file out)
  in
  Term.(term_result' (const select $ regions $ out $ faults_t $ stream_out $ telemetry_t))

let campaign_cmd =
  cmd "campaign" ~doc:"Run a daily longitudinal campaign and archive it as CSV."
    Term.(const campaign $ world_t $ days_t $ jobs_t $ campaign_run_t)

let resume dir jobs telemetry =
  match Result.bind (Scanner.Stream_sink.manifest ~dir) campaign_of_manifest with
  | Error e -> Error (dir ^ ": " ^ e)
  | Ok (world, days, faults) ->
      (* Shards and their seeds depend only on the world, so any worker
         count reproduces the original bytes. *)
      guard (run_campaign ~world ~days ~jobs ~output:(`Stream dir) ~faults ~telemetry)

let resume_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The --stream-out directory of the interrupted campaign.")
  in
  cmd "resume"
    ~doc:
      "Resume an interrupted campaign from its --stream-out directory, the run's log. Fully \
       recorded shards are restored without probing; the rest replay from day 0, checked block \
       by block against the log, and continue. A damaged or torn newest block falls back to the \
       last one that verifies. The finished directory is byte-identical to an uninterrupted \
       run's at any --jobs."
    Term.(const resume $ dir $ jobs_t $ telemetry_t)

let analyze path =
  guard @@ fun () ->
  let is_dir = Sys.file_exists path && Sys.is_directory path in
  (* A --stream-out directory can hold either archive kind; the manifest
     [mode] key says which, so one command reads both. *)
  let traffic_archive =
    is_dir
    &&
    match Scanner.Stream_sink.manifest ~dir:path with
    | Ok kvs -> List.assoc_opt "mode" kvs = Some "traffic"
    | Error _ -> false
  in
  if traffic_archive then (
    let* t = Analysis.Tracking_report.of_sink ~dir:path in
    print_string (Analysis.Tracking_report.render t);
    Ok ())
  else
    let load = if is_dir then Scanner.Daily_scan.load_stream else Scanner.Daily_scan.load in
    let* campaign = load path in
    print_string (Tlsharm.Experiments.lifetime_report campaign);
    Ok ()

let analyze_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"Campaign CSV, or a --stream-out sink directory (campaign or traffic mode).")
  in
  cmd "analyze"
    ~doc:
      "Re-analyze an archived run from a CSV file or a --stream-out directory: secret-lifetime \
       spans for campaigns, the tracking-exposure table for traffic archives."
    Term.(const analyze $ path)

(* --- vuln-report ----------------------------------------------------------------------- *)

let vuln_report config cross =
  guard @@ fun () ->
  let study = Tlsharm.Study.create ~config () in
  print_string (Tlsharm.Study.vuln_report study);
  print_newline ();
  match cross with
  | None -> Ok ()
  | Some path ->
      let* rows = Scanner.Cross_vantage.load path in
      print_string
        (Analysis.Vuln_report.render_inconsistency
           (Analysis.Vuln_report.inconsistency ~world:(Tlsharm.Study.world study) ~rows));
      print_newline ();
      Ok ()

let vuln_report_cmd =
  let cross =
    Arg.(
      value
      & opt (some string) None
      & info [ "cross-vantage" ] ~docv:"FILE"
          ~doc:
            "Also render the cross-regional inconsistency table from an observation CSV written \
             by $(b,campaign --regions) N (HT weights and operator attribution come from the \
             same world the report runs against).")
  in
  cmd "vuln-report"
    ~doc:
      "Rank operators by combined harm — HT-weighted vulnerability-window days scaled by \
       misconfiguration severity — and optionally the cross-regional inconsistency table from a \
       --regions archive."
    Term.(const vuln_report $ study_t $ cross)

(* --- metrics-report -------------------------------------------------------------------- *)

(* Human rendering of the JSON telemetry artifacts written by
   [campaign --metrics-out/--trace-out]. Accepts either schema: both
   files carry a "schema" field, so one command serves both rather than
   making the user remember which file holds which. *)
let metrics_report path =
  guard @@ fun () ->
  let* content =
    Durable.Atomic_io.read path
    |> Result.map_error (Durable.Atomic_io.error_to_string ~what:path)
  in
  let* json = Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.of_string content) in
  let obj_section name =
    Option.value ~default:[] (Option.bind (Obs.Json.member name json) Obs.Json.to_obj)
  in
  let ints name j =
    Option.value ~default:[]
      (Option.map (List.filter_map Obs.Json.to_int)
         (Option.bind (Obs.Json.member name j) Obs.Json.to_list))
  in
  match Option.bind (Obs.Json.member "schema" json) Obs.Json.to_str with
  | Some s when String.equal s Obs.Metrics.schema ->
      let counters = obj_section "counters" and gauges = obj_section "gauges" in
      if counters <> [] then print_endline "counters:";
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-28s %d\n" name (Option.value ~default:0 (Obs.Json.to_int v)))
        counters;
      if gauges <> [] then print_endline "gauges:";
      List.iter
        (fun (name, v) ->
          Printf.printf "  %-28s %d\n" name (Option.value ~default:0 (Obs.Json.to_int v)))
        gauges;
      let hists = obj_section "histograms" in
      if hists <> [] then print_endline "histograms:";
      List.iter
        (fun (name, h) ->
          let bounds = ints "bounds" h and counts = ints "counts" h in
          let sum =
            Option.value ~default:0 (Option.bind (Obs.Json.member "sum" h) Obs.Json.to_int)
          in
          Printf.printf "  %-28s sum=%d\n" name sum;
          List.iteri
            (fun i c ->
              let label =
                if i < List.length bounds then Printf.sprintf "<= %d" (List.nth bounds i)
                else Printf.sprintf "> %d" (match List.rev bounds with b :: _ -> b | [] -> 0)
              in
              Printf.printf "    %-10s %d\n" label c)
            counts)
        hists;
      Ok ()
  | Some s when String.equal s Obs.Trace.schema ->
      let spans =
        Option.value ~default:[] (Option.bind (Obs.Json.member "spans" json) Obs.Json.to_list)
      in
      Printf.printf "%-24s %-32s %8s %12s %10s %10s\n" "span" "attrs" "count" "sim_total_s"
        "sim_min_s" "sim_max_s";
      List.iter
        (fun span ->
          let str name =
            Option.value ~default:"" (Option.bind (Obs.Json.member name span) Obs.Json.to_str)
          in
          let num name =
            Option.value ~default:0 (Option.bind (Obs.Json.member name span) Obs.Json.to_int)
          in
          let attrs =
            Option.value ~default:[] (Option.bind (Obs.Json.member "attrs" span) Obs.Json.to_obj)
            |> List.map (fun (k, v) ->
                   Printf.sprintf "%s=%s" k (Option.value ~default:"?" (Obs.Json.to_str v)))
            |> String.concat ","
          in
          Printf.printf "%-24s %-32s %8d %12d %10d %10d" (str "name") attrs (num "count")
            (num "sim_total_s") (num "sim_min_s") (num "sim_max_s");
          match Option.bind (Obs.Json.member "wall_ns" span) Obs.Json.to_float with
          | Some w -> Printf.printf "  wall=%.3fms\n" (w /. 1e6)
          | None -> print_newline ())
        spans;
      Ok ()
  | Some s -> Error (Printf.sprintf "%s: unknown telemetry schema %S" path s)
  | None -> Error (path ^ ": missing schema field (not a telemetry file?)")

let metrics_report_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Metrics or trace JSON written by campaign/bench telemetry.")
  in
  cmd "metrics-report"
    ~doc:"Render a telemetry artifact (--metrics-out or --trace-out JSON) as a table."
    Term.(const metrics_report $ path)

(* --- posture --------------------------------------------------------------------------- *)

let posture config targets =
  let world = Simnet.World.create ~config () in
  let targets =
    match targets with [] -> [ "google.com"; "yahoo.com"; "netflix.com"; "yandex.ru" ] | l -> l
  in
  (* A name outside the sampled world has no endpoint to probe; grading
     it would report a confident F for a site that was never looked at. *)
  match List.find_opt (fun d -> Simnet.World.find_domain world d = None) targets with
  | Some d ->
      Error
        (Printf.sprintf "unknown domain %S: not in the %d-domain world (seed %S)" d
           config.Simnet.World.n_domains config.Simnet.World.seed)
  | None ->
      List.iter
        (fun domain ->
          print_endline (Tlsharm.Posture.report (Tlsharm.Posture.assess world ~domain ()));
          print_newline ())
        targets;
      Ok ()

let posture_cmd =
  let targets = Arg.(value & pos_all string [] & info [] ~docv:"DOMAIN" ~doc:"Domains to assess.") in
  cmd "posture"
    ~doc:
      "Grade domains' forward-secrecy posture (resumption windows, STEK rotation, ephemeral \
       hygiene) - the per-site view of the study."
    Term.(const posture $ world_t $ targets)

(* --- attack-demo ------------------------------------------------------------------------ *)

let attack_demo () =
  let env = Tls.Config.sim_env () in
  let rng = Crypto.Rng.create ~seed:"attack-demo" in
  let ca =
    Tls.Cert.self_signed ~curve:env.Tls.Config.pki_curve ~name:"Demo CA" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:env.Tls.Config.pki_curve ~subject:"victim.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let server ~shortcuts =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites = [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ];
          issue_session_ids = shortcuts;
          session_cache =
            (if shortcuts then Some (Tls.Session_cache.create ~lifetime:36_000 ~capacity:1000)
             else None);
          tickets =
            (if shortcuts then
               Some
                 {
                   Tls.Config.stek_manager =
                     Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"demo" ~now:0;
                   lifetime_hint = 36_000;
                   accept_lifetime = 36_000;
                   reissue_on_resumption = true;
                 }
             else None);
          kex_cache =
            Tls.Kex_cache.uniform
              ~policy:(if shortcuts then Tls.Kex_cache.Reuse_forever else Tls.Kex_cache.Fresh_always);
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"demo-server")
  in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"demo-client") ()
  in
  let run ~shortcuts label =
    let server = server ~shortcuts in
    Printf.printf "== %s ==\n" label;
    match
      Tlsharm.Attack.victim_connection client server ~now:100 ~hostname:"victim.example"
        ~offer:Tls.Client.Fresh
    with
    | Error e -> Printf.printf "victim connection failed: %s\n" e
    | Ok recording ->
        Printf.printf "victim sent (ground truth): %S\n" recording.Tlsharm.Attack.plaintext;
        List.iter
          (fun (name, result) ->
            match result with
            | Ok plain -> Printf.printf "  %-22s -> DECRYPTED: %S\n" name plain
            | Error e -> Printf.printf "  %-22s -> failed (%s)\n" name e)
          (Tlsharm.Attack.attempt_all recording ~server ~env ~now:200)
  in
  run ~shortcuts:true "server with crypto shortcuts (tickets + cache + reused ECDHE)";
  print_newline ();
  run ~shortcuts:false "server with forward secrecy done right (no shortcuts)";
  Ok ()

let attack_cmd =
  cmd "attack-demo"
    ~doc:"Demonstrate the stolen-STEK / stolen-DH-value / stolen-cache decryptions end to end."
    Term.(const attack_demo $ const ())

(* --- traffic ------------------------------------------------------------------------------ *)

(* Pins everything the archive means: population shape, policy, world.
   [Traffic_sink.create] refuses to re-attach when any of these differ,
   and [Analysis.Tracking_report.of_sink] reads the run metadata back
   from here. *)
let traffic_manifest (cfg : Traffic.Population.config) =
  [
    ("mode", "traffic");
    ("seed", cfg.Traffic.Population.world.Simnet.World.seed);
    ("n_domains", string_of_int cfg.Traffic.Population.world.Simnet.World.n_domains);
    ("users", string_of_int cfg.Traffic.Population.users);
    ("days", string_of_int cfg.Traffic.Population.days);
    ("shard_users", string_of_int cfg.Traffic.Population.shard_users);
    ("policy", Traffic.Population.policy_to_string cfg.Traffic.Population.policy);
    ("ticket_lifetime", string_of_int cfg.Traffic.Population.ticket_lifetime_cap);
    ("pages_per_day", Printf.sprintf "%g" cfg.Traffic.Population.pages_per_day);
  ]

let traffic (cfg : Traffic.Population.config) jobs stream_out telemetry =
  guard @@ fun () ->
  let obs = recorder telemetry in
  (* Without --stream-out the run log goes to a temporary directory; the
     report is always folded from the log. *)
  Traffic.Traffic_sink.with_sink ?dir:stream_out ~manifest:(traffic_manifest cfg) (fun sink ->
      let kernel_before = Obs.Kernel.snapshot () in
      let r = Traffic.Population.run ~jobs ~sink ~obs cfg in
      write_telemetry ~what:"traffic" telemetry obs ~kernel_before;
      let* report =
        Result.map_error
          (fun e -> "traffic archive: " ^ e)
          (Analysis.Tracking_report.of_sink ~dir:(Traffic.Traffic_sink.dir sink))
      in
      Printf.printf "simulated %d users over %d days (%d shards%s): %d connections%s\n\n"
        cfg.Traffic.Population.users cfg.Traffic.Population.days r.Traffic.Population.n_shards
        (if jobs > 1 then Printf.sprintf ", %d jobs" jobs else "")
        r.Traffic.Population.total_rows
        (match stream_out with Some dir -> " streamed to " ^ dir | None -> "");
      print_string (Analysis.Tracking_report.render report);
      Ok ())

(* The population config, from the shared world and days terms plus the
   traffic-only flags. *)
let traffic_config_t =
  let users =
    checked (at_least "--users" 1)
      Arg.(
        value
        & opt int 10_000
        & info [ "users" ] ~docv:"N" ~doc:"Simulated browser-like client population size.")
  in
  let shard_users =
    checked (at_least "--shard-users" 1)
      Arg.(
        value
        & opt int 16_384
        & info [ "shard-users" ] ~docv:"N"
            ~doc:
              "Users per shard. Sharding depends only on this and --users — never on --jobs — \
               so the archive is byte-identical for any worker count. Each shard simulates its \
               own deterministic world replica.")
  in
  let policy =
    checked Traffic.Population.policy_of_string
      Arg.(
        value
        & opt string "strict"
        & info [ "resumption-policy" ] ~docv:"POLICY"
            ~doc:
              "Client resumption scope: $(b,strict) keys cached sessions and tickets by exact \
               hostname; $(b,cross) shares them across all hostnames of one operator — more \
               abbreviated handshakes, one linkable identity per operator.")
  in
  let ticket_lifetime =
    checked
      (fun v ->
        if v < 0 then Error (Printf.sprintf "--ticket-lifetime must be non-negative (got %d)" v)
        else Ok v)
      Arg.(
        value
        & opt int 0
        & info [ "ticket-lifetime" ] ~docv:"SECS"
            ~doc:
              "Client-side cap on ticket reuse age, seconds; 0 (default) honors the server's \
               advertised lifetime hint alone. Clients never offer state past its lifetime.")
  in
  let pages_per_day =
    checked
      (fun v ->
        if v > 0.0 then Ok v
        else Error (Printf.sprintf "--pages-per-day must be positive (got %g)" v))
      Arg.(
        value
        & opt float 2.0
        & info [ "pages-per-day" ] ~docv:"MEAN"
            ~doc:"Mean page loads per user-day (each page fetches subresource hosts too).")
  in
  let config world days users shard_users ticket_lifetime_cap pages_per_day policy =
    {
      Traffic.Population.default_config with
      Traffic.Population.users;
      days;
      shard_users;
      policy;
      ticket_lifetime_cap;
      pages_per_day;
      world;
    }
  in
  Term.(
    const config $ world_t $ days_t $ users $ shard_users $ ticket_lifetime $ pages_per_day
    $ policy)

let traffic_cmd =
  let stream_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stream-out" ] ~docv:"DIR"
          ~doc:
            "Keep the run log in $(i,DIR) (one append-only spool per user shard) instead of a \
             temporary directory removed when the run ends; rows are never held in memory, so \
             RSS stays flat into the millions of users. Byte-identical at any --jobs; \
             re-running after a crash skips complete shards and reproduces the identical \
             archive. Reassemble with $(b,tlsharm analyze) $(i,DIR).")
  in
  cmd "traffic"
    ~doc:
      "Simulate a browser-like client population over the campaign window and report the \
       latency-saved vs tracking-exposure tradeoff of session resumption (the client-side view \
       of the study)."
    Term.(const traffic $ traffic_config_t $ jobs_t $ stream_out $ telemetry_t)

(* --- fuzz --------------------------------------------------------------------------------- *)

let fuzz count seed artifact verbose =
  guard @@ fun () ->
  let progress n = if verbose && n mod 10_000 = 0 then Printf.eprintf "fuzz: %d drives\r%!" n in
  let report = Faults.Fuzz.run ~seed ~progress ~count () in
  if verbose then prerr_newline ();
  Printf.printf "fuzz: %d drives (seed %S): %d parsed, %d rejected, %d escapes\n"
    report.Faults.Fuzz.executed seed report.Faults.Fuzz.parsed report.Faults.Fuzz.rejected
    (List.length report.Faults.Fuzz.escapes);
  List.iter (fun (name, n) -> Printf.printf "  %-20s %8d\n" name n) report.Faults.Fuzz.by_target;
  match report.Faults.Fuzz.escapes with
  | [] -> Ok ()
  | escapes ->
      let text = String.concat "\n" (List.map Faults.Fuzz.render_escape escapes) in
      (match artifact with
      | Some path ->
          Out_channel.with_open_text path (fun oc -> output_string oc text);
          Printf.eprintf "fuzz: reproducers written to %s\n" path
      | None -> prerr_string text);
      Error (Printf.sprintf "fuzz: %d escaped input(s)" (List.length escapes))

let fuzz_cmd =
  let count =
    checked (at_least "--count" 1)
      Arg.(
        value
        & opt int 100_000
        & info [ "count" ] ~docv:"N" ~doc:"Number of mutated inputs to drive.")
  in
  let seed =
    Arg.(
      value
      & opt string "wire-fuzz"
      & info [ "fuzz-seed" ] ~docv:"SEED"
          ~doc:
            "Fuzzer seed. Inputs are a pure function of (seed, count), so a failing run's \
             arguments are a permanent reproducer.")
  in
  let artifact =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifact" ] ~docv:"PATH"
          ~doc:"Write escaped inputs as hex-dump reproducers to $(i,PATH) instead of stderr.")
  in
  cmd "fuzz"
    ~doc:
      "Drive deterministic structure-aware mutations of valid TLS transcripts through every \
       peer-facing decoder and engine entry point; exit nonzero if any input escapes the \
       typed-error contract (exception or allocation-cap breach)."
    Term.(const fuzz $ count $ seed $ artifact $ verbose_t)

(* --- main --------------------------------------------------------------------------------- *)

let () =
  let doc = "Measuring the security harm of TLS crypto shortcuts (IMC 2016), reproduced." in
  let info = Cmd.info "tlsharm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            world_info_cmd;
            scan_cmd;
            reproduce_cmd;
            experiment_cmd;
            campaign_cmd;
            traffic_cmd;
            resume_cmd;
            analyze_cmd;
            vuln_report_cmd;
            metrics_report_cmd;
            posture_cmd;
            attack_cmd;
            fuzz_cmd;
          ]))
