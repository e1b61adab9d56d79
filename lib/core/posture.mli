(** A per-domain forward-secrecy posture assessment — the operator-facing
    scanner the paper's Section 8 calls for: probe one domain's crypto
    shortcuts cheaply (cipher support, ephemeral hygiene, resumption
    windows via an exponential probe ladder, STEK stability over a
    horizon) and grade the residual harm. *)

type grade = A | B | C | D | F

val grade_to_string : grade -> string

type assessment = {
  domain : string;
  https : bool;
  trusted : bool;
  forward_secret : bool;
  kex_reused : bool;
  session_id_window : int option;  (** seconds; None = no ID resumption *)
  ticket_window : int option;
  distinct_steks_over_horizon : int;  (** 0 = no tickets *)
  stek_static_over_horizon : bool;
  grade : grade;
  notes : string list;
}

val assess : Simnet.World.t -> domain:string -> assessment
(** Probes advance the world's virtual clock (by roughly two ladder walks
    plus the 48-hour STEK horizon). *)

val report : assessment -> string
