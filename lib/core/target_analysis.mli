(** Section 7.2: the nation-state attacker's target analysis of one
    high-value operator — STEK rollover cadence measured from outside,
    ticket-acceptance window, the blast radius of one stolen key, and
    mail (MX) coverage. *)

type rollover = {
  observed_keys : string list;
  rollover_seconds : int option;
  accept_window_seconds : int option;
}

type t = {
  operator : string;
  flagship : string;
  rollover : rollover;
  stek_group_weight : float;
  stek_group_sampled : int;
  mx_coverage_weight : float;
  mx_coverage_fraction : float;
  steks_per_week : float;  (** thefts needed for continuous decryption *)
  mail_shares_stek : bool option;
      (** the operator's mail front-ends use the web STEK (Google: yes) *)
}

val analyze : Study.t -> operator:string -> flagship:string -> t
val report : t -> string

val static_stek_contrast : Study.t -> flagship:string -> string
(** The Yandex case: one STEK spanning the whole observation. *)
