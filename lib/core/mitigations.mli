(** The Section 8.2 operator recommendations, quantified: the measured
    vulnerability-window distribution re-evaluated under each mitigation,
    plus the regional-STEK blast-radius table. *)

type scenario = {
  name : string;
  description : string;
  mitigate : Analysis.Vuln_window.components -> Analysis.Vuln_window.components;
}

val scenarios : scenario list
(** Measured baseline, daily STEK rotation, 5-minute caches, no (EC)DHE
    reuse, all three combined, and shortcuts disabled. *)

val report : Study.t -> string
