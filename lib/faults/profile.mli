(** Fault profiles: per-operator rates for the injected failure
    taxonomy. [none] injects nothing; [default] models §3-plausible
    loss (giants steadier than the tail); [flaky] stress-tests the
    retry machinery. *)

type rates = {
  timeout_p : float;
  reset_p : float;
  alert_p : float;
  truncated_p : float;
  byzantine_p : float;  (** per-attempt: peer answers with hostile bytes *)
  slow_p : float;
  slow_latency : int * int;  (** seconds, min/max *)
  outage_p : float;  (** per 6-hour epoch *)
  outage_duration : int * int;  (** seconds, min/max *)
}

type t = {
  name : string;
  default_rates : rates;
  per_operator : (string * rates) list;
}

val zero_rates : rates
val none : t
val default : t
val flaky : t

val byzantine : t
(** Default-profile weather plus byzantine peers: hostile bytes on ~4%
    of tail attempts, 0.4% for the giants. *)

val names : string list
(** Names accepted by {!of_name}, for CLI docs. *)

val of_name : string -> t option
val rates_for : t -> operator:string -> rates
