(** The handshake latency model behind the "latency saved by resumption"
    numbers: a deterministic per-hostname RTT (a pure hash — no world or
    clock access, so the analysis can recompute it from archived rows
    alone). A full TLS 1.2 handshake costs two round trips before
    application data, an abbreviated one costs one; resumption therefore
    saves exactly one RTT per connection. *)

val saved_ms : string -> int
(** The full handshake's cost less the abbreviated one's: one
    deterministic round-trip time for the hostname, in [16, 240] ms. *)
