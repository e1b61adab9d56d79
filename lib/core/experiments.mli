(** One entry point per table and figure of the paper's evaluation. Each
    function runs (or reuses) the needed experiments via {!Study} and
    returns formatted text with measured values next to the paper's. *)

val section3 : Study.t -> string
(** The data-collection funnel: always-listed population, ever-HTTPS,
    ever-trusted, participating shares. *)

val table1 : Study.t -> string
(** Support for forward secrecy and resumption. *)

val fig1 : Study.t -> string
(** Session-ID lifetime (resumption-delay walk + CDF). *)

val fig2 : Study.t -> string
(** Session-ticket lifetime, including lifetime-hint specifics. *)

val fig3 : Study.t -> string
(** STEK lifetime shares and CDF. *)

val fig4 : Study.t -> string
(** STEK lifetime by Alexa rank tier. *)

val table2 : Study.t -> string
(** Top domains with prolonged STEK reuse. *)

val table3 : Study.t -> string
(** Top domains with prolonged DHE reuse. *)

val table4 : Study.t -> string
(** Top domains with prolonged ECDHE reuse. *)

val fig5 : Study.t -> string
(** Ephemeral exchange value reuse shares and CDFs. *)

val table5 : Study.t -> string
(** Largest session-cache service groups. *)

val table6 : Study.t -> string
(** Largest STEK service groups. *)

val table7 : Study.t -> string
(** Largest Diffie-Hellman service groups. *)

val fig6 : Study.t -> string
(** STEK sharing x longevity (treemap data + mosaic). *)

val fig7 : Study.t -> string
(** Session-cache and Diffie-Hellman sharing x longevity. *)

val fig8 : Study.t -> string
(** Overall vulnerability windows (the headline result). *)

val by_name : (string * (Study.t -> string)) list
(** [("t1", table1); ...; ("f8", fig8); ("funnel", ...)] — the ids
    [tlsharm experiment] takes; ["funnel"] renders the scanner's own per-day
    measurement-loss funnel under the configured fault profile. *)
