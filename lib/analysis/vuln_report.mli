(** Operator-level combined-harm ranking (shortcut vulnerability windows
    x misconfiguration severity, Horvitz-Thompson weighted) and the
    cross-regional inconsistency table (after Alashwali et al.). *)

type operator_harm = {
  operator : string;
  domains : float;  (** HT-weighted domain count *)
  window_days : float;  (** weighted mean vulnerability window, days *)
  severity : float;  (** weighted mean misconfiguration severity *)
  worst_misconfig : string;
      (** {!Simnet.Profile.misconfig_label} of the worst domain *)
  harm : float;  (** sum of weight * window_days * (1 + severity) *)
}

val rank_operators :
  world:Simnet.World.t -> windows:Vuln_window.window list -> operator_harm list
(** Highest harm first; ties broken by operator name (deterministic). *)

val render_harm : ?limit:int -> operator_harm list -> string

type inconsistency = {
  regions : string list;  (** regions observed, first-appearance order *)
  population : float;  (** weighted domains observed OK from >= 2 regions *)
  inconsistent : float;  (** weighted domains whose fingerprints differ *)
  by_operator : (string * float) list;
      (** weighted inconsistent domains per operator, descending *)
}

val inconsistency :
  world:Simnet.World.t -> rows:Scanner.Observation.conn list -> inconsistency
(** [rows] is a cross-vantage observation archive; [world] supplies
    HT weights and operator attribution (identical across regions). *)

val render_inconsistency : inconsistency -> string
