(* Retry policy: how hard a probe tries before writing a loss into the
   funnel. Backoff is exponential with deterministic jitter, and all of
   it is accounted on the probe's private attempt clock — the shared
   scan clock never moves, so retries cannot shift the virtual time any
   other observation is made at. *)

type policy = {
  max_attempts : int; (* total attempts, first included *)
  deadline : int; (* give up once cumulative delay exceeds this *)
}

(* Three attempts with 2s/4s backoffs inside a one-minute deadline: the
   shape of a real probing fleet's per-target budget (cf. ZMap-driven
   scans, which bound per-host retransmissions the same way). *)
let default = { max_attempts = 3; deadline = 60 }

(* Seconds before the first retry, growth per retry, and the cap. *)
let base_backoff = 2
let multiplier = 2.0
let max_backoff = 30

(* Jitter in [0.5, 1.5): spreads a real fleet's retries; here it only
   needs to be deterministic, keyed by the probe's coordinates so two
   probes retrying the same host at different times decorrelate. *)
let backoff ~key ~attempt =
  if attempt < 0 then invalid_arg "Retry.backoff: negative attempt";
  let nominal =
    min (float_of_int max_backoff)
      (float_of_int base_backoff *. (multiplier ** float_of_int attempt))
  in
  let jitter = 0.5 +. Det.u01 (Printf.sprintf "backoff|%s|%d" key attempt) in
  max 1 (int_of_float (nominal *. jitter))
