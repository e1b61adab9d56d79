(** The paper's headline numbers as checked data: each target names an
    experiment and a metric, holds the value Springall et al. report and
    a model tolerance with its reason, and measures the same weighted
    share on a study. A measured share passes when it lies within the
    tolerance plus three Horvitz-Thompson standard errors of the paper's
    value, so a small world gets a wide band instead of a flaky check. *)

type target = {
  experiment : string;  (** the [tlsharm experiment] id, e.g. ["f8"] *)
  metric : string;
  paper : float;  (** the paper's share, in [\[0, 1\]] *)
  tolerance : float;  (** model tolerance, absolute share *)
  reason : string;  (** why the model may sit this far from the paper *)
  points : Study.t -> Analysis.Stats.weighted list * (float -> bool);
      (** the population and predicate whose weighted share is measured *)
}

val targets : target list
(** The headline subset: Figure 8's three windows, the shares of
    Figures 1-3 and Table 1's reuse ratios. *)

val design : Simnet.World.t -> Analysis.Stats.design
(** The world's sampling design: its non-certainty domains are the
    uniform stratum. *)

type result = { target : target; measured : Analysis.Stats.estimate }

val measure : Study.t -> result list
(** Every target measured on the study, forcing the experiments it
    needs. *)

val band : result -> float
(** [tolerance + 3 se]. *)

val passes : result -> bool
(** [|measured - paper| <= band]. *)

val render : result list -> string
(** One row per target: paper, measured, SE, band and verdict. *)
