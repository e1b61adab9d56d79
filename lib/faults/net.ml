(* The resilient connection path: injected faults, bounded retries, and
   funnel accounting wrapped around a single underlying
   [Simnet.World.connect] thunk.

   The invariant everything here serves: *whether faults are enabled or
   not, the world-side thunk runs exactly once per probe, at the probe
   clock's unmodified time*. Three consequences follow:

   - a faulted attempt short-circuits before the world is touched, so
     the endpoint's Rng streams (failure coin, slot pick, handshake
     randomness) advance exactly as in a fault-free run;
   - retry backoff accumulates on a local attempt clock ([elapsed]); the
     shared scan clock never moves, so no other observation shifts in
     time;
   - when retries exhaust, we still make one "shadow" world call and
     discard the result — the RNG draws a fault-free run would have
     spent on this probe are spent here too, keeping every subsequent
     observation byte-identical between fault-on and fault-off runs
     (only genuinely-failed probes differ, which is the point).

   World-level errors (No_such_domain / No_https / Connection_failed)
   are the simulation's ground truth, not injected noise; retrying them
   would mean a second world call and a desynced stream, so they are
   classified and final. *)

type t = { injector : Injector.t; funnel : Funnel.t; breaker : Breaker.t }

let create ~injector ?funnel () =
  {
    injector;
    funnel = (match funnel with Some f -> f | None -> Funnel.create ());
    breaker = Breaker.create ();
  }

let funnel t = t.funnel

let classify_error = function
  | Simnet.World.No_such_domain -> Fault.No_such_domain
  | Simnet.World.No_https -> Fault.No_https
  | Simnet.World.Connection_failed -> Fault.Connection_refused

(* Run one probe operation. [connect] performs the real world call;
   returns [Ok (outcome, attempts)] or [Error (fault, attempts)]. *)
let attempt t ~hostname ~now ~connect =
  let day = now / Simnet.Clock.day in
  let finish_real ~feedback ~attempts ~slow () =
    match connect () with
    | Ok outcome ->
        feedback (Ok ());
        Funnel.record_success t.funnel ~day ~attempts ~slow;
        Ok (outcome, attempts)
    | Error e ->
        let f = classify_error e in
        feedback (Error f);
        Funnel.record_failure t.funnel ~day ~attempts f;
        Error (f, attempts)
  in
  let p = Injector.retry t.injector in
  (* The breaker adapts the retry budget per operator: one attempt while
     open, the full policy budget otherwise. Consuming the budget and
     feeding the outcome back happen exactly once per probe, in probe
     order, so budgets are deterministic. Under a profile that never
     fires, every probe passes on its first attempt and the breaker never
     opens. *)
  let feedback, max_attempts =
    match Injector.operator_of t.injector ~hostname with
    | Some op ->
        ( Breaker.record t.breaker ~operator:op,
          Breaker.attempts_allowed t.breaker ~operator:op ~max_attempts:p.Retry.max_attempts )
    | None -> ((fun _ -> ()), p.Retry.max_attempts)
  in
  let rec go ~attempt ~elapsed ~last =
    if attempt >= max_attempts || elapsed > p.Retry.deadline then begin
      (* Exhausted: the shadow call keeps world-side streams where a
         fault-free run would leave them; the probe never sees it. *)
      ignore (connect ());
      let f = Option.value last ~default:Fault.Connect_timeout in
      feedback (Error f);
      Funnel.record_failure t.funnel ~day ~attempts:attempt f;
      Error (f, attempt)
    end
    else
      match Injector.decide t.injector ~hostname ~time:(now + elapsed) ~attempt with
      | Injector.Pass -> finish_real ~feedback ~attempts:(attempt + 1) ~slow:false ()
      | Injector.Slow lat when elapsed + lat <= p.Retry.deadline ->
          finish_real ~feedback ~attempts:(attempt + 1) ~slow:true ()
      | Injector.Slow _ -> next ~attempt ~elapsed Fault.Slow_handshake
      | Injector.Fault f -> next ~attempt ~elapsed f
  and next ~attempt ~elapsed f =
    let jitter_key = Printf.sprintf "%s|%d" hostname now in
    go ~attempt:(attempt + 1)
      ~elapsed:(elapsed + Retry.backoff ~key:jitter_key ~attempt)
      ~last:(Some f)
  in
  go ~attempt:0 ~elapsed:0 ~last:None
