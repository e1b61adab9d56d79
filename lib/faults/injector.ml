(* The fault schedule: given a hostname and a virtual instant, decide
   whether this connection attempt gets through, gets through slowly, or
   dies of an injected fault — deterministically.

   Every decision is a pure hash of (fault seed, endpoint, hostname,
   time, attempt) via {!Det}, never a stateful Rng draw. That is the
   load-bearing design choice: the world's handshake and endpoint
   streams are untouched whether faults are on or off, decisions are
   identical no matter which parallel-campaign worker asks first, and
   the whole timeline is reproducible from the seed alone.

   Outage windows are scheduled per (endpoint, 6-hour epoch): each epoch
   independently draws "is there an outage", its start offset, and its
   duration (clamped to the epoch, so membership checks stay O(1) and
   order-independent). A window lasts minutes to hours — longer than any
   retry schedule, shorter than the gap to the next daily sweep — so
   retries inside it exhaust while tomorrow's scan succeeds, exactly the
   churn signature the paper's §3 funnel shows. *)

type decision = Pass | Slow of int | Fault of Fault.t

type t = {
  seed : string;
  profile : Profile.t;
  retry : Retry.policy;
  world : Simnet.World.t;
}

let create ?(seed = "faults") ~profile ?(retry = Retry.default) world =
  { seed; profile; retry; world }

let retry t = t.retry

let outage_epoch = 6 * Simnet.Clock.hour

(* Is [ep] inside a scheduled outage window at [time]? Windows never
   cross epoch boundaries (duration is clamped), so only the current
   epoch needs checking. *)
let outage_at t ~(rates : Profile.rates) ~ep ~time =
  rates.Profile.outage_p > 0.0
  &&
  let epoch = time / outage_epoch in
  let key part = Printf.sprintf "%s|outage|%d|%d|%s" t.seed ep epoch part in
  Det.u01 (key "hit") < rates.Profile.outage_p
  &&
  let lo, hi = rates.Profile.outage_duration in
  let dur = Det.int_in (key "dur") ~lo ~hi in
  let epoch_start = epoch * outage_epoch in
  let start = epoch_start + Det.int_in (key "start") ~lo:0 ~hi:(outage_epoch - 1) in
  let finish = min (start + dur) (epoch_start + outage_epoch) in
  time >= start && time < finish

let operator_of t ~hostname =
  Option.map snd (Simnet.World.endpoint_info t.world hostname)

let endpoint_outage_at t ~hostname ~time =
  match Simnet.World.endpoint_info t.world hostname with
  | None -> false
  | Some (ep, operator) ->
      outage_at t ~rates:(Profile.rates_for t.profile ~operator) ~ep ~time

(* Rates under which no draw can fire: the walk below would return
   [Pass] for every [u01] draw (none is below 0), so skip the hashing. *)
let silent (r : Profile.rates) =
  r.Profile.outage_p = 0.0 && r.Profile.timeout_p = 0.0 && r.Profile.reset_p = 0.0
  && r.Profile.alert_p = 0.0 && r.Profile.truncated_p = 0.0 && r.Profile.byzantine_p = 0.0
  && r.Profile.slow_p = 0.0

let decide t ~hostname ~time ~attempt =
  match Simnet.World.endpoint_info t.world hostname with
  | None ->
      (* The world will answer No_such_domain / No_https on its own;
         nothing to inject. *)
      Pass
  | Some (ep, operator) ->
      let rates = Profile.rates_for t.profile ~operator in
      if silent rates then Pass
      else if outage_at t ~rates ~ep ~time then Fault Fault.Endpoint_outage
      else begin
        let key kind =
          Printf.sprintf "%s|%s|%d|%s|%d|%d" t.seed kind ep hostname time attempt
        in
        (* One uniform draw walked through cumulative transient rates:
           the cheapest way to make the five fault kinds mutually
           exclusive per attempt. *)
        let u = Det.u01 (key "conn") in
        let below = ref 0.0 in
        let in_band p =
          below := !below +. p;
          u < !below
        in
        if in_band rates.Profile.timeout_p then Fault Fault.Connect_timeout
        else if in_band rates.Profile.reset_p then Fault Fault.Tcp_reset
        else if in_band rates.Profile.alert_p then Fault Fault.Tls_alert
        else if in_band rates.Profile.truncated_p then Fault Fault.Truncated_record
        else if in_band rates.Profile.byzantine_p then
          (* The peer answers with hostile bytes; synthesize and decode
             them to pick malformed vs. protocol-violation. Profiles with
             byzantine_p = 0 never reach this band, so their decision
             streams are untouched. *)
          Fault (Byzantine.classify ~key:(key "byz"))
        else if in_band rates.Profile.slow_p then begin
          let lo, hi = rates.Profile.slow_latency in
          Slow (Det.int_in (key "lat") ~lo ~hi)
        end
        else Pass
      end
