(* Fault profiles: how unreliable the simulated network is, per
   operator. The paper's §3 funnel loses ~5% of connections between
   "domain in list" and "successful handshake"; a profile decides how
   much of that loss is transient (timeouts, resets — cleared by a
   retry) versus structural (endpoint outage windows that outlast any
   backoff schedule but not the gap to the next daily sweep). Large
   operators (the paper's Cloudflare/Google giants) run tighter ships
   than the tail, so profiles carry per-operator overrides. *)

type rates = {
  timeout_p : float; (* per-attempt: SYN lost *)
  reset_p : float; (* per-attempt: RST mid-handshake *)
  alert_p : float; (* per-attempt: fatal TLS alert *)
  truncated_p : float; (* per-attempt: stream cut inside a record *)
  byzantine_p : float; (* per-attempt: peer answers with hostile bytes *)
  slow_p : float; (* per-attempt: latency draw instead of instant *)
  slow_latency : int * int; (* seconds, min/max, when slow *)
  outage_p : float; (* per 6h epoch: endpoint-wide down-window *)
  outage_duration : int * int; (* seconds, min/max *)
}

type t = {
  name : string;
  default_rates : rates;
  per_operator : (string * rates) list;
}

let zero_rates =
  {
    timeout_p = 0.0;
    reset_p = 0.0;
    alert_p = 0.0;
    truncated_p = 0.0;
    byzantine_p = 0.0;
    slow_p = 0.0;
    slow_latency = (1, 1);
    outage_p = 0.0;
    outage_duration = (0, 0);
  }

(* No injected faults at all: the world's own ep_failure_rate coin is
   the only loss source, and every probe makes exactly one attempt worth
   of fault decisions (all Pass). *)
let none = { name = "none"; default_rates = zero_rates; per_operator = [] }

(* Moderate, §3-plausible loss. Transient rates sum to ~4.5%, so with
   three attempts almost everything recovers; outage windows (~2% of 6h
   epochs, 10–90 minutes) are what actually shows up as daily losses. *)
let default_rates_tail =
  {
    timeout_p = 0.020;
    reset_p = 0.008;
    alert_p = 0.004;
    truncated_p = 0.004;
    byzantine_p = 0.0;
    slow_p = 0.010;
    slow_latency = (5, 45);
    outage_p = 0.020;
    outage_duration = (10 * 60, 90 * 60);
  }

(* The giants: an order of magnitude steadier, and when they do go down
   it is brief. *)
let default_rates_giant =
  {
    timeout_p = 0.002;
    reset_p = 0.001;
    alert_p = 0.0005;
    truncated_p = 0.0005;
    byzantine_p = 0.0;
    slow_p = 0.002;
    slow_latency = (2, 10);
    outage_p = 0.002;
    outage_duration = (60, 10 * 60);
  }

let default =
  {
    name = "default";
    default_rates = default_rates_tail;
    per_operator =
      [ ("cloudflare", default_rates_giant); ("google", default_rates_giant) ];
  }

(* A hostile network for stress-testing the retry machinery: transient
   rates high enough that exhaustion is common, outages long and
   frequent enough that whole daily observations go missing. *)
let flaky =
  {
    name = "flaky";
    default_rates =
      {
        timeout_p = 0.12;
        reset_p = 0.06;
        alert_p = 0.03;
        truncated_p = 0.03;
        byzantine_p = 0.0;
        slow_p = 0.08;
        slow_latency = (10, 120);
        outage_p = 0.08;
        outage_duration = (30 * 60, 4 * 60 * 60);
      };
    per_operator = [];
  }

(* Byzantine peers on top of default-profile weather: a stress profile
   where the tail answers with hostile bytes on ~12% of attempts — high
   enough that retry exhaustion (and so malformed/byzantine funnel
   losses) actually happens at campaign scale, and consecutive-failure
   streaks trip the per-operator circuit breaker in {!Net}. The giants
   misbehave an order of magnitude less, mirroring the percent-scale
   nonconformance the cross-regional studies in PAPERS.md report. *)
let byzantine =
  {
    name = "byzantine";
    default_rates = { default_rates_tail with byzantine_p = 0.12 };
    per_operator =
      [
        ("cloudflare", { default_rates_giant with byzantine_p = 0.012 });
        ("google", { default_rates_giant with byzantine_p = 0.012 });
      ];
  }

let names = [ "none"; "default"; "flaky"; "byzantine" ]

let of_name = function
  | "none" -> Some none
  | "default" -> Some default
  | "flaky" -> Some flaky
  | "byzantine" -> Some byzantine
  | _ -> None

let rates_for t ~operator =
  match List.assoc_opt operator t.per_operator with
  | Some r -> r
  | None -> t.default_rates
