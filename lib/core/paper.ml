(* The paper's headline numbers as checked data (see paper.mli). Every
   target measures the same weighted share its experiment prints, so
   the table and the printed figure cannot disagree about what is
   measured; the paper's value is a number here, not a string in print
   code.

   The tolerances are the model's own distance from the paper, by kind
   of share, independent of world size; the sampling error of a given
   world is the 3 SE the check adds on top. *)

module St = Analysis.Stats
module Rs = Scanner.Resumption_scan
module Bs = Scanner.Burst_scan

type target = {
  experiment : string;
  metric : string;
  paper : float;
  tolerance : float;
  reason : string;
  points : Study.t -> St.weighted list * (float -> bool);
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

let flag b = if b then 1.0 else 0.0

let target experiment metric paper (tolerance, reason) points =
  { experiment; metric; paper; tolerance; reason; points }

(* --- Figure 8 -------------------------------------------------------------------- *)

let window_points study =
  List.map
    (fun (w : Analysis.Vuln_window.window) ->
      { St.value = float_of_int w.Analysis.Vuln_window.seconds; weight = w.Analysis.Vuln_window.weight })
    (Study.vulnerability_windows study)

let fig8 =
  List.map
    (fun (metric, paper, limit) ->
      target "f8" metric paper combined_window (fun s -> (window_points s, fun v -> v > limit)))
    [ ("window > 24 hours", 0.38, day); ("window > 7 days", 0.22, 7. *. day); ("window > 30 days", 0.10, 30. *. day) ]

(* --- Figures 1 and 2 ---------------------------------------------------------------- *)

let trusted_flag results field study =
  ( List.map
      (fun (r : Rs.domain_result) -> { St.value = flag (field r); weight = r.Rs.weight })
      (Study.trusted_results (results study)),
    fun v -> v > 0.5 )

let resumer_points results study =
  List.filter_map
    (fun (r : Rs.domain_result) ->
      Option.map (fun h -> { St.value = float_of_int h; weight = r.Rs.weight }) r.Rs.max_honored)
    (Study.trusted_results (results study))

let resumption_figure experiment results ~support ~paper:(p_support, p_1s, p_5m, p_1h, p_24h) =
  let resumers pred study = (resumer_points results study, pred) in
  [
    target experiment support p_support profile_share (trusted_flag results (fun r -> r.Rs.supports));
    target experiment "resumed after 1 second" p_1s profile_share
      (trusted_flag results (fun r -> r.Rs.resumed_at_1s));
    target experiment "resumers honoring <= 5 min" p_5m walk_step (resumers (fun v -> v <= 300.));
    target experiment "resumers honoring <= 1 hour" p_1h walk_step (resumers (fun v -> v <= 3600.));
    (* The walk stops at 24 h; the figures count 86,399 s and up as
       honoring 24 hours. *)
    target experiment "resumers honoring >= 24 hours" p_24h walk_step (resumers (fun v -> v >= 86_399.));
  ]

let fig1 =
  resumption_figure "f1" Study.fig1_results ~support:"set a session ID"
    ~paper:(0.97, 0.83, 0.61, 0.82, 0.008)

let fig2 =
  resumption_figure "f2" Study.fig2_results ~support:"issued a session ticket"
    ~paper:(0.79, 0.76, 0.67, 0.76, 0.02)

(* --- Figure 3 --------------------------------------------------------------------------- *)

let span_days study =
  List.map
    (fun (s : Analysis.Lifetime.domain_spans) ->
      { St.value = float_of_int s.Analysis.Lifetime.max_span_days; weight = s.Analysis.Lifetime.weight })
    (Study.stek_spans study)

let fig3 =
  List.map
    (fun (metric, paper, pred) -> target "f3" metric paper profile_share (fun s -> (span_days s, pred)))
    [
      ("never issued a ticket", 0.23, fun v -> v = 0.);
      ("different issuing STEK each day", 0.41, fun v -> v = 1.);
      ("same STEK for 7+ days", 0.22, fun v -> v >= 7.);
      ("same STEK for 30+ days", 0.10, fun v -> v >= 30.);
    ]

(* --- Table 1 ------------------------------------------------------------------------------ *)

(* Share of the trusted supporters of a mechanism whose burst repeated a
   value: value 2 when every sighting was the same, 1 when some value
   appeared twice, 0 otherwise. *)
let repeat_points bursts ~support ~field study =
  let in_trusted = Study.table1_trusted study in
  List.filter_map
    (fun (r : Bs.domain_result) ->
      if in_trusted r && support r then
        let any2, all = Bs.repeats (Bs.result_values ~field r) in
        Some { St.value = (if all then 2. else if any2 then 1. else 0.); weight = r.Bs.weight }
      else None)
    (bursts (Study.table1_bursts study))

let table1 =
  let completed (r : Bs.domain_result) = r.Bs.successes > 0 in
  let issued (r : Bs.domain_result) = Bs.result_values ~field:`Stek r <> [] in
  List.concat_map
    (fun (name, bursts, support, field, (supporters, twice, all)) ->
      let points = repeat_points bursts ~support ~field in
      [
        target "t1" (name ^ ": >= 2x same value") (twice /. supporters) burst_ratio (fun s ->
            (points s, fun v -> v >= 1.));
        target "t1" (name ^ ": all same value") (all /. supporters) burst_ratio (fun s ->
            (points s, fun v -> v >= 2.));
      ])
    [
      ("DHE", (fun (d, _, _) -> d), completed, `Dhe, (252_340., 18_113., 12_461.));
      ("ECDHE", (fun (_, e, _) -> e), completed, `Ecdhe, (390_120., 60_370., 41_683.));
      ("tickets", (fun (_, _, t) -> t), issued, `Stek, (354_697., 353_124., 334_404.));
    ]

let targets = table1 @ fig1 @ fig2 @ fig3 @ fig8

(* --- Checking ------------------------------------------------------------------------------ *)

let design world =
  let tail = List.filter (fun d -> Simnet.World.domain_weight d <> 1.0) (Array.to_list (Simnet.World.domains world)) in
  {
    St.tail_sampled = List.length tail;
    tail_weight = (match tail with d :: _ -> Simnet.World.domain_weight d | [] -> 0.0);
  }

type result = { target : target; measured : St.estimate }

let measure study =
  let design = design (Study.world study) in
  List.map
    (fun target ->
      let points, pred = target.points study in
      { target; measured = St.ht_share design points pred })
    targets

let band r = r.target.tolerance +. (3.0 *. r.measured.St.se)
let passes r = Float.abs (r.measured.St.share -. r.target.paper) <= band r

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
             (if passes r then "ok" else "FAIL");
           ])
         results)
  ^ "\n"
