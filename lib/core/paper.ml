(* The paper's numbers and how each headline share is counted (see
   paper.mli). The printed tables render these targets, so a table and
   the check cannot disagree about what is measured; the paper's value
   is a number here, not a string in print code.

   The tolerances are the model's own distance from the paper, by kind
   of share, independent of world size; the sampling error of a given
   world is the 3 SE the check adds on top. *)

module St = Analysis.Stats
module L = Analysis.Lifetime
module Rs = Scanner.Resumption_scan
module Bs = Scanner.Burst_scan
module Ds = Scanner.Daily_scan

type population =
  | Lifetimes of L.field
  | Reuses of L.field
  | Of_study of (Study.t -> St.weighted list)

type target = {
  experiment : string;
  metric : string;
  paper : float;
  tolerance : float;
  reason : string;
  population : population;
  pred : float -> bool;
  needs_days : int;
}

let day = float_of_int Simnet.Clock.day

(* --- Tolerances by kind of share ---------------------------------------------- *)

let profile_share =
  ( 0.03,
    "set directly by a calibrated operator-profile mixture (simnet/profile.ml), fitted to \
     the paper's whole-percent shares" )

let walk_step =
  ( 0.05,
    "a step of the resumption-delay CDF; profiles are calibrated to the CDF's shape, and \
     EXPERIMENTS.md records the 5-minute step a few points high" )

let burst_ratio =
  ( 0.03,
    "within-burst repetition depends on farm sizes and client affinity, drawn per operator" )

let combined_window =
  ( 0.05,
    "the maximum of five mechanisms' windows, so the calibration errors of Figures 1-3 and 5 \
     add up" )

(* A x2 band: the share itself. *)
let long_tail paper = (paper, "long-tail share set by a handful of sampled reusers")

let stable_trust =
  ( 0.10,
    "the simulated trust rate among stable domains runs low: ever-trusted sits about ten \
     points under the paper's (EXPERIMENTS.md, known deviations)" )

let flag b = if b then 1.0 else 0.0

let target ?(needs_days = 0) experiment metric paper (tolerance, reason) population pred =
  { experiment; metric; paper; tolerance; reason; population; pred; needs_days }

(* --- Section 3 ------------------------------------------------------------------ *)

(* How far each always-listed domain got down the paper's funnel: 0 never
   served HTTPS, 1 ever did, 2 also browser-trusted, 3 also issued a
   ticket, resumed or completed an (EC)DHE exchange. *)
let funnel_stages study =
  let supports = Hashtbl.create 4096 in
  List.iter
    (fun (r : Rs.domain_result) -> if r.Rs.supports then Hashtbl.replace supports r.Rs.domain ())
    (Study.fig1_results study @ Study.fig2_results study);
  Array.to_list (Study.campaign study).Ds.series
  |> List.filter_map (fun (s : Ds.domain_series) ->
         let ever f = Array.exists f s.Ds.days in
         let https = ever (fun (r : Ds.day_record) -> r.Ds.default_ok || r.Ds.dhe_ok) in
         let took_part =
           Hashtbl.mem supports s.Ds.domain
           || ever (fun (r : Ds.day_record) ->
                  r.Ds.stek_id <> None || r.Ds.ecdhe_value <> None || r.Ds.dhe_value <> None)
         in
         let stage =
           if not https then 0.
           else if not s.Ds.trusted then 1.
           else if not took_part then 2.
           else 3.
         in
         if s.Ds.stable then Some { St.value = stage; weight = s.Ds.weight } else None)

let section3 =
  List.map
    (fun (metric, paper, tolerance, stage) ->
      target "s3" metric paper tolerance (Of_study funnel_stages) (fun v -> v >= stage))
    [
      ("ever supported HTTPS", 0.68, profile_share, 1.);
      ("ever browser-trusted", 0.54, stable_trust, 2.);
      ("issued a ticket, resumed, or did (EC)DHE", 0.53, stable_trust, 3.);
    ]

(* --- Table 1 ------------------------------------------------------------------------ *)

(* Share of the trusted supporters of a mechanism whose burst repeated a
   value: value 2 when every sighting was the same, 1 when some value
   appeared twice, 0 otherwise. *)
let repeat_points ~in_trusted ~support ~field results =
  List.filter_map
    (fun (r : Bs.domain_result) ->
      if in_trusted r && support r then
        let any2, all = Bs.repeats (Bs.result_values ~field r) in
        Some { St.value = (if all then 2. else if any2 then 1. else 0.); weight = r.Bs.weight }
      else None)
    results

let table1 =
  let completed (r : Bs.domain_result) = r.Bs.successes > 0 in
  let issued (r : Bs.domain_result) = Bs.result_values ~field:`Stek r <> [] in
  List.concat_map
    (fun (name, bursts, support, field, (supporters, twice, all)) ->
      let points =
        Of_study
          (fun s ->
            repeat_points ~in_trusted:(Study.table1_trusted s) ~support ~field
              (bursts (Study.table1_bursts s)))
      in
      [
        target "t1" (name ^ ": >= 2x same value") (twice /. supporters) burst_ratio points
          (fun v -> v >= 1.);
        target "t1" (name ^ ": all same value") (all /. supporters) burst_ratio points
          (fun v -> v >= 2.);
      ])
    [
      ("DHE", (fun (d, _, _) -> d), completed, `Dhe, (252_340., 18_113., 12_461.));
      ("ECDHE", (fun (_, e, _) -> e), completed, `Ecdhe, (390_120., 60_370., 41_683.));
      ("tickets", (fun (_, _, t) -> t), issued, `Stek, (354_697., 353_124., 334_404.));
    ]

(* --- Figures 1 and 2 ---------------------------------------------------------------- *)

let trusted_flags field results =
  List.map
    (fun (r : Rs.domain_result) -> { St.value = flag (field r); weight = r.Rs.weight })
    (Study.trusted_results results)

let resumers results =
  List.filter_map
    (fun (r : Rs.domain_result) ->
      Option.map (fun h -> { St.value = float_of_int h; weight = r.Rs.weight }) r.Rs.max_honored)
    (Study.trusted_results results)

let resumption_figure experiment results ~support ~paper:(p_support, p_1s, p_5m, p_1h, p_24h) =
  let flags field = Of_study (fun s -> trusted_flags field (results s)) in
  let resumers = Of_study (fun s -> resumers (results s)) in
  [
    target experiment support p_support profile_share
      (flags (fun r -> r.Rs.supports))
      (fun v -> v > 0.5);
    target experiment "resumed after 1 second" p_1s profile_share
      (flags (fun r -> r.Rs.resumed_at_1s))
      (fun v -> v > 0.5);
    target experiment "resumers honoring <= 5 min" p_5m walk_step resumers (fun v -> v <= 300.);
    target experiment "resumers honoring <= 1 hour" p_1h walk_step resumers (fun v -> v <= 3600.);
    (* The walk stops at 24 h; the figures count 86,399 s and up as
       honoring 24 hours. *)
    target experiment "resumers honoring >= 24 hours" p_24h walk_step resumers
      (fun v -> v >= 86_399.);
  ]

let fig1 =
  resumption_figure "f1" Study.fig1_results ~support:"set a session ID"
    ~paper:(0.97, 0.83, 0.61, 0.82, 0.008)

let fig2 =
  resumption_figure "f2" Study.fig2_results ~support:"issued a session ticket"
    ~paper:(0.79, 0.76, 0.67, 0.76, 0.02)

(* --- Figures 3 and 5 -------------------------------------------------------------------- *)

let lifetime field =
  List.map
    (fun (metric, paper, needs_days, pred) ->
      target ~needs_days "f3" metric paper profile_share (Lifetimes field) pred)
    [
      ("never issued a ticket", 0.23, 0, fun v -> v = 0.);
      ("different issuing STEK each day", 0.41, 1, fun v -> v = 1.);
      ("same STEK for 7+ days", 0.22, 7, fun v -> v >= 7.);
      ("same STEK for 30+ days", 0.10, 30, fun v -> v >= 30.);
    ]

(* A value seen on two calendar days was reused for at least one day. *)
let fig5 =
  List.concat_map
    (fun (name, field, (p_1d, p_7d, p_30d)) ->
      List.map
        (fun (horizon, paper, days) ->
          target ~needs_days:days "f5"
            (Printf.sprintf "%s: value reused >= %s" name horizon)
            paper (long_tail paper) (Reuses field)
            (fun v -> v >= float_of_int days))
        [ ("1 day", p_1d, 2); ("7 days", p_7d, 7); ("30 days", p_30d, 30) ])
    [ ("DHE", L.Dhe, (0.023, 0.020, 0.0092)); ("ECDHE", L.Ecdhe, (0.042, 0.037, 0.017)) ]

(* --- Figure 8 ------------------------------------------------------------------------------ *)

let windows = Of_study (fun s -> Analysis.Vuln_window.cdf_points (Study.vulnerability_windows s))

(* A window past N days needs a span of N + 1 days: the resumption
   walks stop at 24 hours, and a span of d days is a window of d days. *)
let fig8 =
  List.map
    (fun (metric, paper, days) ->
      target ~needs_days:(days + 1) "f8" metric paper combined_window windows (fun v ->
          v > float_of_int days *. day))
    [ ("window > 24 hours", 0.38, 1); ("window > 7 days", 0.22, 7); ("window > 30 days", 0.10, 30) ]

let targets = section3 @ table1 @ fig1 @ fig2 @ lifetime L.Stek @ fig5 @ fig8
let of_experiment id = List.filter (fun t -> t.experiment = id) targets

let of_field field =
  List.filter
    (fun t -> match t.population with Lifetimes f | Reuses f -> f = field | Of_study _ -> false)
    targets

(* --- Population counts ------------------------------------------------------------------- *)

type count = { table : string; label : string; paper_count : float; members : population }

let dhe_scan keep =
  Of_study
    (fun s ->
      let dhe, _, _ = Study.table1_bursts s in
      List.filter_map
        (fun (r : Bs.domain_result) ->
          if keep s r then Some { St.value = 0.; weight = r.Bs.weight } else None)
        dhe)

let trusted_where results keep =
  Of_study
    (fun s ->
      List.filter_map
        (fun (r : Rs.domain_result) ->
          if keep r then Some { St.value = 0.; weight = r.Rs.weight } else None)
        (Study.trusted_results (results s)))

let counts =
  List.map
    (fun (table, label, paper_count, members) -> { table; label; paper_count; members })
    [
      ( "s3",
        "Top Million domains represented",
        1_000_000.,
        Of_study
          (fun s ->
            Array.to_list (Simnet.World.domains (Study.world s))
            |> List.map (fun d -> { St.value = 0.; weight = Simnet.World.domain_weight d })) );
      ("s3", "always-listed domains", 539_546., Of_study funnel_stages);
      ("t1", "Alexa 1M domains (DHE scan)", 957_116., dhe_scan (fun _ _ -> true));
      ("t1", "browser-trusted TLS domains", 427_313., dhe_scan Study.table1_trusted);
      ("f1", "trusted HTTPS domains", 433_220., trusted_where Study.fig1_results (fun _ -> true));
      ("f2", "trusted HTTPS domains", 461_475., trusted_where Study.fig2_results (fun _ -> true));
      ( "f2",
        "issuers leaving the lifetime hint unspecified",
        14_663.,
        trusted_where Study.fig2_results (fun r -> r.Rs.hint = Some 0) );
      ("f3", "stable trusted domains", 291_643., Lifetimes L.Stek);
      ("f8", "participating domains", 288_252., windows);
    ]

(* --- Measuring ----------------------------------------------------------------------------- *)

(* The sampling design from every domain's weight: the non-certainty
   domains are the uniform stratum. *)
let design weights =
  let tail = List.filter (fun w -> w <> 1.0) weights in
  { St.tail_sampled = List.length tail; tail_weight = (match tail with w :: _ -> w | [] -> 0.0) }

let points ~spans ~study = function
  | Lifetimes field -> L.span_points ~include_unobserved:true (spans field)
  | Reuses field -> L.span_points (spans field)
  | Of_study f -> f (study ())

type result = { target : target; measured : St.estimate; campaign_days : int }

let measure_with design ~campaign_days ~spans ~study targets =
  List.map
    (fun t ->
      {
        target = t;
        measured = St.ht_share design (points ~spans ~study t.population) t.pred;
        campaign_days;
      })
    targets

let study_spans study = function
  | L.Stek -> Study.stek_spans study
  | L.Dhe -> Study.dhe_spans study
  | L.Ecdhe -> Study.ecdhe_spans study

let measure study targets =
  let weights =
    Array.to_list (Simnet.World.domains (Study.world study)) |> List.map Simnet.World.domain_weight
  in
  measure_with (design weights) ~campaign_days:(Study.campaign_days study)
    ~spans:(study_spans study) ~study:(fun () -> study) targets

let size study c =
  St.total_weight (points ~spans:(study_spans study) ~study:(fun () -> study) c.members)

let measure_archive (campaign : Ds.t) =
  let weights =
    Array.to_list campaign.Ds.series |> List.map (fun (s : Ds.domain_series) -> s.Ds.weight)
  in
  let spans =
    List.map (fun field -> (field, lazy (L.analyze ~field campaign))) [ L.Stek; L.Dhe; L.Ecdhe ]
  in
  measure_with (design weights) ~campaign_days:campaign.Ds.n_days
    ~spans:(fun field -> Lazy.force (List.assoc field spans))
    ~study:(fun () -> invalid_arg "Paper.measure_archive: a target counted over more than spans")

let band r = r.target.tolerance +. (3.0 *. r.measured.St.se)
let passes r = Float.abs (r.measured.St.share -. r.target.paper) <= band r
let reachable r = r.target.needs_days <= r.campaign_days

let render results =
  let module R = Analysis.Report in
  R.table
    ~headers:[ "Exp"; "Metric"; "Paper"; "Measured"; "SE"; "Band"; "" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.target.experiment;
             r.target.metric;
             R.fmt_pct r.target.paper;
             R.fmt_pct r.measured.St.share;
             R.fmt_pct r.measured.St.se;
             "+/-" ^ R.fmt_pct (band r);
             (if not (reachable r) then Printf.sprintf "n/a (needs >=%d d)" r.target.needs_days
              else if passes r then "ok"
              else "FAIL");
           ])
         results)
  ^ "\n"
