(* The measurement-loss taxonomy: every way a probe can fail to yield an
   observation, from names that never resolve to injected network
   faults. Real measurement studies (the paper's §3, the TLS 1.3
   deployment scans) report failures per cause; the scanner records one
   of these on every failed connection and {!Funnel} tallies them per
   scan day. *)

type t =
  | No_such_domain (* name not in the simulated Internet *)
  | No_https (* domain resolves but runs no TLS endpoint *)
  | Connection_refused (* the endpoint's baseline per-connection loss coin *)
  | Connect_timeout (* injected: SYN lost, the handshake never starts *)
  | Tcp_reset (* injected: RST mid-handshake *)
  | Tls_alert (* injected: fatal alert mid-handshake *)
  | Truncated_record (* injected: the stream dies inside a record *)
  | Slow_handshake (* injected latency exceeded the probe deadline *)
  | Endpoint_outage (* whole-endpoint down-window (minutes to hours) *)
  | Malformed_response (* injected: well-framed bytes the codecs reject *)
  | Protocol_violation (* injected: parses cleanly but breaks the protocol *)
  | Unknown (* archived row predating failure classification *)

let all =
  [
    No_such_domain;
    No_https;
    Connection_refused;
    Connect_timeout;
    Tcp_reset;
    Tls_alert;
    Truncated_record;
    Slow_handshake;
    Endpoint_outage;
    Malformed_response;
    Protocol_violation;
    Unknown;
  ]

(* CSV tokens: short, stable, and greppable in archived datasets. *)
let to_string = function
  | No_such_domain -> "nxdomain"
  | No_https -> "nohttps"
  | Connection_refused -> "refused"
  | Connect_timeout -> "timeout"
  | Tcp_reset -> "reset"
  | Tls_alert -> "alert"
  | Truncated_record -> "truncated"
  | Slow_handshake -> "slow"
  | Endpoint_outage -> "outage"
  | Malformed_response -> "malformed"
  | Protocol_violation -> "byzantine"
  | Unknown -> "unknown"

let of_string = function
  | "nxdomain" -> Some No_such_domain
  | "nohttps" -> Some No_https
  | "refused" -> Some Connection_refused
  | "timeout" -> Some Connect_timeout
  | "reset" -> Some Tcp_reset
  | "alert" -> Some Tls_alert
  | "truncated" -> Some Truncated_record
  | "slow" -> Some Slow_handshake
  | "outage" -> Some Endpoint_outage
  | "malformed" -> Some Malformed_response
  | "byzantine" -> Some Protocol_violation
  | "unknown" -> Some Unknown
  | _ -> None

(* Injected faults are transient by construction — a retry can clear
   them. World-level errors (no such name, no HTTPS, the endpoint's own
   loss coin) are the simulation's ground truth and are never retried. *)
let is_injected = function
  | Connect_timeout | Tcp_reset | Tls_alert | Truncated_record | Slow_handshake
  | Endpoint_outage | Malformed_response | Protocol_violation ->
      true
  | No_such_domain | No_https | Connection_refused | Unknown -> false

(* The byzantine subset: losses caused by a peer that *answered* but
   answered wrong — what the circuit breaker and the funnel report's
   byzantine row single out from ordinary availability faults. *)
let is_byzantine = function
  | Malformed_response | Protocol_violation -> true
  | _ -> false
