(** Secret-lifetime estimation from the daily campaign (Sections 4.3-4.4):
    the lifetime of a STEK or server (EC)DHE value at a domain is the span
    between the first and last day the (identifier, domain) pair was
    observed, which absorbs load-balancer jitter. *)

type field = Stek | Dhe | Ecdhe

type domain_spans = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  stable : bool;
  observed_days : int;
  distinct_values : int;
  max_span_days : int;  (** 0 when the field was never observed *)
}

val spans_of_series : field:field -> Scanner.Daily_scan.domain_series -> domain_spans

val analyze :
  ?restrict_stable_trusted:bool -> field:field -> Scanner.Daily_scan.t -> domain_spans list
(** Defaults to the paper's analysis population (stable and trusted). *)

val span_points : ?include_unobserved:bool -> domain_spans list -> Stats.weighted list
(** CDF input for Figures 3 and 5. *)

val top_reusers : ?min_days:int -> ?limit:int -> domain_spans list -> domain_spans list
(** Tables 2-4: longest reusers ordered by Alexa rank. *)
