(** The resumption-lifetime experiments of Sections 4.1-4.2 (Figures 1
    and 2): initial handshake, resume at +1 s, then every 5 minutes until
    the server declines or 24 hours pass. Ticket mode keeps offering the
    first ticket even when the server reissues, as the paper does. *)

type mode = Session_ids | Tickets

type domain_result = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  stable : bool;
  https : bool;  (** initial connection succeeded *)
  supports : bool;  (** set a session ID / issued a ticket *)
  resumed_at_1s : bool;
  max_honored : int option;  (** largest delay (seconds) that still resumed *)
  hint : int option;  (** advertised ticket lifetime hint *)
}

val run :
  Probe.t ->
  mode:mode ->
  ?max_delay:int ->
  ?domains:Simnet.World.domain list ->
  unit ->
  domain_result list
