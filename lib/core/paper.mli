(** The paper's numbers and how each headline share is counted. Every
    paper value the program prints or checks lives here: each target
    names an experiment and a metric, holds the value Springall et al.
    report and a model tolerance with its reason, and says which
    weighted population it counts. The printed tables ({!Experiments})
    and [tlsharm analyze] render these targets, and [test/test_paper.ml]
    checks them. A measured share passes when it lies within the
    tolerance plus three Horvitz-Thompson standard errors of the paper's
    value, so a small world gets a wide band instead of a flaky check. *)

(** The weighted points a share is counted over. Span populations are
    counted on the campaign's spans alone, so an archived campaign can
    be measured without a world. *)
type population =
  | Lifetimes of Analysis.Lifetime.field
      (** Figure 3's: every analysed domain's longest span in days, 0
          when the field was never observed *)
  | Reuses of Analysis.Lifetime.field
      (** Figure 5's: the same spans over the domains that completed the
          exchange on some day *)
  | Of_study of (Study.t -> Analysis.Stats.weighted list)

type target = {
  experiment : string;  (** the [tlsharm experiment] id, e.g. ["f8"] *)
  metric : string;
  paper : float;  (** the paper's share, in [\[0, 1\]] *)
  tolerance : float;  (** model tolerance, absolute share *)
  reason : string;  (** why the model may sit this far from the paper *)
  population : population;
  pred : float -> bool;  (** the points the share counts *)
  needs_days : int;
      (** the shortest campaign, in days, on which [pred] can hold: a
          span of N days needs N, a window past N days needs N + 1; 0
          when the share does not depend on the campaign's length *)
}

val targets : target list
(** The headline shares of Section 3, Table 1 and Figures 1-3, 5 and 8. *)

val of_experiment : string -> target list
(** The targets of one [tlsharm experiment] id. *)

val of_field : Analysis.Lifetime.field -> target list
(** The targets counted over one field's spans. *)

val lifetime : Analysis.Lifetime.field -> target list
(** Figure 3's counts (never observed, one day, 7+ and 30+ days) over a
    field's spans; [lifetime Stek] are the f3 targets. *)

val resumers : Scanner.Resumption_scan.domain_result list -> Analysis.Stats.weighted list
(** Each trusted resumer's longest honored resumption delay, seconds:
    the population of Figures 1 and 2's CDF steps. *)

type count = { table : string; label : string; paper_count : float; members : population }
(** A population count that heads a table: printed beside the weighted
    count of [members], never checked, because absolute counts are not
    reproduction targets. *)

val counts : count list
val size : Study.t -> count -> float

type result = {
  target : target;
  measured : Analysis.Stats.estimate;
  campaign_days : int;  (** the length of the campaign it was measured on *)
}

val measure : Study.t -> target list -> result list
(** The targets measured on the study, forcing the experiments they
    need. *)

val measure_archive : Scanner.Daily_scan.t -> target list -> result list
(** Span targets measured on an archived campaign, whose domains' own
    weights give the sampling design; applied to the campaign alone, it
    analyses each field's spans once for every later call. Raises
    [Invalid_argument] on an [Of_study] target. *)

val band : result -> float
(** [tolerance + 3 se]. *)

val passes : result -> bool
(** [|measured - paper| <= band]. *)

val reachable : result -> bool
(** [needs_days <= campaign_days]: a shorter campaign cannot show the
    share, so its 0 is no evidence either way. *)

val render : result list -> string
(** One row per target: paper, measured, SE, band and verdict: ok, FAIL,
    or [n/a (needs >=N d)] for a target the campaign is too short to
    reach, which is not a failure. *)
