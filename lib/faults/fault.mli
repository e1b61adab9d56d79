(** The measurement-loss taxonomy recorded on every failed probe and
    tallied per scan day by {!Funnel}. *)

type t =
  | No_such_domain
  | No_https
  | Connection_refused  (** the endpoint's baseline per-connection loss *)
  | Connect_timeout
  | Tcp_reset
  | Tls_alert
  | Truncated_record
  | Slow_handshake  (** latency draw exceeded the probe deadline *)
  | Endpoint_outage  (** whole-endpoint down-window *)
  | Malformed_response
      (** injected byzantine response whose bytes the typed decoders
          reject (corrupt fields, hostile lengths, truncated framing) *)
  | Protocol_violation
      (** injected byzantine response that parses cleanly but violates
          the protocol (wrong version, bad MAC, stale ticket) *)
  | Unknown  (** archived row predating failure classification *)

val all : t list

val to_string : t -> string
(** Stable CSV token ([timeout], [reset], [outage], …). *)

val of_string : string -> t option

val is_injected : t -> bool
(** Injected faults are transient (retryable); world-level errors are
    ground truth and final. *)

val is_byzantine : t -> bool
(** The byzantine subset of injected faults: the peer answered, but with
    malformed or protocol-violating bytes. *)
