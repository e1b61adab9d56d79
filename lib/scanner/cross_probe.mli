(** The cross-domain session-cache experiment of Section 5.1: attempt to
    resume domain a's session on domain b, sampling up to five
    neighbours by AS and five by IP per domain; groups grow transitively in
    the analysis. Probing is harmless — servers fall back to a full
    handshake on an unknown ID. *)

type edge = { from_domain : string; to_domain : string }

type result = {
  participants : string list;  (** domains that resumed their own session *)
  edges : edge list;  (** a's session resumed on b *)
}

val run : Probe.t -> ?domains:Simnet.World.domain list -> unit -> result
(** Probes every domain of [domains] (default: the whole world) with
    [probe], on the world clock. *)
