(** Weighted descriptive statistics: empirical CDFs, percentiles and
    share-of-population counts. Weights are the world's sampling weights,
    so weighted fractions estimate the Top Million fractions the paper
    reports. *)

type weighted = { value : float; weight : float }

val total_weight : weighted list -> float

val fraction : weighted list -> (float -> bool) -> float
(** Weighted share of points satisfying the predicate (0 on empty). *)

(** {2 Design-based standard errors} *)

type design = { tail_sampled : int; tail_weight : float }
(** The world's stratified sample: [tail_sampled] units drawn uniformly
    from the rest of the Top Million, each of weight [tail_weight], plus
    certainty units (ranks 1-1000 and named samples, weight 1) that
    represent only themselves. *)

type estimate = { share : float; se : float }

val ht_share : design -> weighted list -> (float -> bool) -> estimate
(** [ht_share design points pred] is [fraction points pred] with its
    Horvitz-Thompson standard error: the linearized variance of the
    ratio estimator, from the uniform stratum alone (certainty units add
    none), with the finite-population correction. A point belongs to
    the stratum when its weight is [tail_weight]; the stratum's units
    that are not among [points] count as zero residuals. [se] is 0 on
    empty input or a stratum of fewer than two units. *)

type cdf = (float * float) list
(** Sorted (value, cumulative fraction) steps. *)

val cdf : weighted list -> cdf

val cdf_at : cdf -> float -> float
(** Fraction of mass at or below [x]. *)

val percentile : weighted list -> float -> float
(** [percentile points q] with [q] in [0,1]; [nan] on empty input. *)

val quantiles : weighted list -> float list -> float list
(** [quantiles points qs] computes every requested quantile from a
    single sort and one cumulative walk — agreeing exactly (to the
    float) with calling {!percentile} once per [q], which re-sorts per
    call. The latency tables ask for several quantiles of the same
    population; this is their single-pass path. [nan]s on empty input;
    raises [Invalid_argument] if any [q] is outside [0,1]. *)

val median : weighted list -> float

val histogram : bounds:float list -> weighted list -> float array
(** Per-bucket weight over ascending upper bounds; the final bucket is
    open-ended. *)

val duration_to_string : float -> string
