(** Figure 4: STEK lifetime by Alexa rank, bucketed in cumulative tiers
    (Top 100 / 1K / 10K / 100K / 1M). *)

type tier = { upper_rank : int; label : string }

type tier_summary = {
  t : tier;
  issuers : float;  (** weighted ticket-issuing domains in the tier *)
  sampled_issuers : int;
  share_1d : float;
  share_2_6d : float;
  share_7_29d : float;
  share_30d_plus : float;
  median_days : float;
}

val analyze : Lifetime.domain_spans list -> tier_summary list
