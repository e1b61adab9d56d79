(** Behavioural profiles for simulated HTTPS deployments: the
    calibration table of the reproduction. Each distribution is matched
    to a number the paper reports (Table 1, Figures 1-5, the prose of
    Sections 4 and 6) or to the documented defaults of the server
    software it names. {!sample_tail} draws one long-tail site; the giant
    shared-infrastructure operators are in {!Operators}. *)

type ticket = {
  hint : int;  (** advertised lifetime hint, seconds; 0 = unspecified *)
  accept : int;  (** how long tickets actually resume *)
  stek : Tls.Stek_manager.policy;
  reissue : bool;
}

(** Undersized DHE groups, orthogonal to the crypto-shortcut axis. *)
type weak_dh =
  | Export_grade  (** LOGJAM-class export group *)
  | Legacy  (** undersized but not export-grade *)

type misconfig = {
  weak_dh : weak_dh option;  (** served DHE group is undersized *)
  static_only : bool;  (** static key exchange only (no FS at all) *)
  stale_order : bool;  (** prefers obsolete suites over modern ones *)
}

type t = {
  https : bool;
  trusted : bool;  (** presents a browser-trusted chain *)
  suites : Tls.Types.cipher_suite list;  (** preference order *)
  issue_ids : bool;  (** sets a session ID in ServerHello *)
  cache_lifetime : int option;  (** [None] = never resumes by ID *)
  ticket : ticket option;
  dhe_policy : Tls.Kex_cache.policy;
  ecdhe_policy : Tls.Kex_cache.policy;
  restart_mean : int option;  (** mean seconds between process restarts *)
  failure_rate : float;  (** transient per-connection failure probability *)
  misconfig : misconfig;
}

val well_configured : misconfig
(** No misconfiguration. *)

val misconfig_severity : misconfig -> int
(** One additive severity scale for combined-harm ranking: export-grade
    DH > no forward secrecy > undersized DH > a stale preference order. *)

val misconfig_label : misconfig -> string
(** ["clean"], or the misconfigurations joined by [+]
    (["export-dh+stale-order"]). *)

val misconfig_combine : misconfig -> misconfig -> misconfig
(** The worse of two configurations, field by field. *)

val misconfig_suites : misconfig -> Tls.Types.cipher_suite list -> Tls.Types.cipher_suite list
(** The suite menu a misconfigured endpoint actually serves. *)

val sample_downgrade : Crypto.Rng.t -> misconfig
(** A regional downgrade for the cross-vantage worlds. *)

val sample_tail : Crypto.Rng.t -> t
(** Draw one independent long-tail site. *)
