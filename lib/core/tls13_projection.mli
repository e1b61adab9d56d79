(** Sections 2.4 / 8.1 quantified: the measured ecosystem's vulnerability
    windows re-evaluated under TLS 1.3 PSK-resumption semantics —
    [psk_ke] (1.2-ticket equivalence), [psk_dhe_ke] 1-RTT data (STEK
    exposure gone, ephemeral reuse remains), and 0-RTT early data (full
    STEK window again). *)

val report : Study.t -> string
