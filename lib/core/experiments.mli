(** One entry point per table and figure of the paper's evaluation. Each
    function runs (or reuses) the needed experiments via {!Study} and
    returns formatted text; the headline tables (s3, t1, f1-f3, f5, f8)
    render {!Paper}'s counts and targets, measured on the study. *)

val fig2 : Study.t -> string
(** Session-ticket lifetime, including lifetime-hint specifics. *)

val fig3 : Study.t -> string
(** STEK lifetime shares and CDF. *)

val table6 : Study.t -> string
(** Largest STEK service groups. *)

val fig8 : Study.t -> string
(** Overall vulnerability windows (the headline result). *)

val by_name : (string * (Study.t -> string)) list
(** [("t1", table1); ...; ("f8", fig8); ("funnel", ...)] — the ids
    [tlsharm experiment] takes, and the only entry point for those with no
    function above: f4 (STEK lifetime by rank tier), t2-t4 (top prolonged
    STEK, DHE and ECDHE reusers), t5 and t7 (largest session-cache and
    Diffie-Hellman service groups), f6 and f7 (sharing x longevity).
    ["funnel"] renders the scanner's own per-day measurement-loss funnel
    under the configured fault profile. *)

val lifetime_report : Scanner.Daily_scan.t -> string
(** [tlsharm analyze] of a campaign archive: Figure 3's counts over each
    field's spans, the field's {!Paper} targets measured on the archive
    beside their paper values, and its longest reusers. *)
