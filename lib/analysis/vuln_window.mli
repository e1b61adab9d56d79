(** The Section 6 vulnerability-window model: per-domain lower bounds on
    how long an attacker who later obtains the server's stored secrets
    can decrypt a recorded "forward secret" connection, combined across
    mechanisms (max wins, Section 6.4 / Figure 8). *)

type components = {
  session_id_honored : int;  (** measured resumption window, seconds *)
  ticket_honored : int;
  stek_span_days : int;
  dhe_span_days : int;
  ecdhe_span_days : int;
}

type window = {
  domain : string;
  rank : int;
  weight : float;
  seconds : int;
  dominant : string;  (** which mechanism set the window *)
}

val combine : domain:string -> rank:int -> weight:float -> components -> window

val assemble_components :
  session_results:Scanner.Resumption_scan.domain_result list ->
  ticket_results:Scanner.Resumption_scan.domain_result list ->
  stek_spans:Lifetime.domain_spans list ->
  dhe_spans:Lifetime.domain_spans list ->
  ecdhe_spans:Lifetime.domain_spans list ->
  (string * int * float * components) list
(** Per-domain components over the union of all inputs'
    (name, rank, weight). *)

val windows_of_components :
  ?mitigate:(components -> components) -> (string * int * float * components) list -> window list
(** [mitigate] transforms components first — the Section 8.2 what-ifs. *)

type summary = {
  population : float;
  over_1h : float;
  over_24h : float;
  over_7d : float;
  over_30d : float;
}

val summarize : window list -> summary
val cdf_points : window list -> Stats.weighted list
