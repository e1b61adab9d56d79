(** The giant shared-infrastructure operators of the study: each spec
    describes one real-world provider whose domains share TLS secret
    state (the session-cache, STEK and Diffie-Hellman groups of
    Tables 5-7, the rotation behaviour of Figure 6). A [pod] is one
    shared-state unit, an SSL terminator (or synchronized fleet); STEKs
    are shared at pod or operator scope. *)

type pod = {
  pod_label : string;
  pod_share : float;  (** share of the operator's domains in this pod *)
  cache_lifetime : int option;  (** session-ID cache lifetime *)
}

type spec = {
  op_name : string;
  asn : int;
  size : int;  (** domains in the real Top Million *)
  pods : pod list;
  issue_ids : bool;
  ticket : Profile.ticket option;
  stek_scope : [ `Operator | `Pod ];
  dhe_policy : Tls.Kex_cache.policy;
  ecdhe_policy : Tls.Kex_cache.policy;
  suites : Tls.Types.cipher_suite list;
  restart_day : int option;  (** scheduled process restart (kills kex caches) *)
  flagships : (string * int) list;  (** named domains with fixed ranks *)
  mx_provider : bool;  (** other domains' MX records point here (Google) *)
  regional_note : [ `Consistent | `Inconsistent ];
      (** cross-regional config consistency: [`Inconsistent] operators
          downgrade from some vantages *)
}

val all : spec list
(** Every modeled operator. *)
