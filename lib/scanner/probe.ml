(* A probing client: one TLS connection attempt against the simulated
   Internet, distilled into an {!Observation.conn}.

   Bulk settings: chain validation runs once per domain through a cache
   (the certificate cannot change servers' minds mid-study more often
   than the scanner revisits, and the paper's analyses need one boolean
   per domain), and ServerKeyExchange signatures are trusted after the
   engine checked the handshake end-to-end in the test suite — both
   documented deviations from a paranoid client, made for sweep speed. *)

type t = {
  world : Simnet.World.t;
  client : Tls.Client.t;
  trust_cache : (string, bool) Hashtbl.t;
  env : Tls.Config.env;
  clock : Simnet.Clock.t;
      (* the clock this probe reads time from: the world clock for the
         study's point experiments, a shard-private clock in a campaign *)
  net : Faults.Net.t;
      (* fault injection (with its retry policy) + funnel; under
         [Profile.none] every connection is a single attempt *)
  obs : Obs.Recorder.t; (* telemetry; [Obs.Recorder.null] when off *)
}

let make ~offer_suites ?(offer_ticket = true) ?clock ?injector ?funnel ?(obs = Obs.Recorder.null)
    ~seed world =
  let env = Simnet.World.env world in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites;
          offer_ticket;
          root_store = Simnet.World.root_store world;
          check_certs = false;
          evaluate_trust = false;
          verify_ske = false;
        }
      ~rng:(Crypto.Rng.create ~seed:("probe:" ^ seed)) ()
  in
  let clock = Option.value clock ~default:(Simnet.World.clock world) in
  let injector =
    match injector with
    | Some i -> i
    | None -> Faults.Injector.create ~profile:Faults.Profile.none world
  in
  let net = Faults.Net.create ~injector ?funnel () in
  { world; client; trust_cache = Hashtbl.create 256; env; clock; net; obs }

let create = make ~offer_suites:Tls.Types.all_cipher_suites
let funnel t = Faults.Net.funnel t.net

let dhe_only ?clock ?injector ?funnel ?obs world ~seed =
  make ~offer_suites:[ Tls.Types.DHE_ECDSA_AES128_SHA256 ] ~offer_ticket:false ?clock ?injector
    ?funnel ?obs ~seed world

let ecdhe_only ?clock ?injector ?funnel ?obs world ~seed =
  make ~offer_suites:[ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ] ~offer_ticket:false ?clock
    ?injector ?funnel ?obs ~seed world

let evaluate_trust t ~domain ~chain ~now =
  match Hashtbl.find_opt t.trust_cache domain with
  | Some v -> v
  | None -> (
      (* Only a full-chain evaluation may populate the cache: a domain
         first seen through a resumed or failed connection carries no
         chain, and caching [false] for it would brand the domain
         untrusted for the rest of the study. *)
      match chain with
      | [] -> false
      | _ ->
          let v =
            Result.is_ok
              (Tls.Cert.validate ~curve:t.env.Tls.Config.pki_curve
                 ~store:(Simnet.World.root_store t.world) ~now ~hostname:domain chain)
          in
          Hashtbl.replace t.trust_cache domain v;
          v)

(* Classify the server's key-exchange value by the negotiated suite. *)
let kex_fields outcome =
  match (outcome.Tls.Engine.cipher, outcome.Tls.Engine.server_kex_public) with
  | Some suite, Some v -> (
      let hex = Wire.Hex.encode v in
      match Tls.Types.suite_kex suite with
      | Tls.Types.Dhe -> (Some hex, None)
      | Tls.Types.Ecdhe -> (None, Some hex)
      | Tls.Types.Static_ecdh -> (None, None))
  | _ -> (None, None)

let observe ?(attempts = 1) t ~domain (outcome : Tls.Engine.outcome) ~now =
  let dhe_value, ecdhe_value = kex_fields outcome in
  let resumed =
    match outcome.Tls.Engine.resumed with
    | `No -> Observation.No_resumption
    | `Via_session_id -> Observation.By_session_id
    | `Via_ticket -> Observation.By_ticket
  in
  let trusted =
    match outcome.Tls.Engine.cert_chain with
    | [] ->
        (* Resumptions carry no chain; reuse the cached evaluation. *)
        Option.value ~default:false (Hashtbl.find_opt t.trust_cache domain)
    | chain -> evaluate_trust t ~domain ~chain ~now
  in
  {
    Observation.time = now;
    domain;
    ok = outcome.Tls.Engine.ok;
    resumed;
    cipher = outcome.Tls.Engine.cipher;
    session_id_set = String.length outcome.Tls.Engine.session_id > 0;
    session_id = Wire.Hex.encode outcome.Tls.Engine.session_id;
    trusted;
    stek_id = Option.map Wire.Hex.encode outcome.Tls.Engine.stek_key_name;
    ticket_hint = Option.map fst outcome.Tls.Engine.new_ticket;
    dhe_value;
    ecdhe_value;
    failure = (if outcome.Tls.Engine.ok then None else Some Faults.Fault.Unknown);
    attempts;
    region = Simnet.World.region t.world;
  }

(* One probe operation; [offer] controls resumption. Routed through the
   fault layer: injected faults retry under the probe's policy (backoff
   on a local attempt clock — the scan clock never moves), while
   world-level errors are ground truth and final, classified into the
   observation instead of collapsed into one anonymous failure. Returns
   the observation and the raw outcome (which carries the session/ticket
   needed to build the next offer). *)
(* Histogram buckets for attempts-per-connection: the retry budget tops
   out well below 16, so the open bucket only catches policy changes. *)
let retry_bounds = [| 1; 2; 4; 8; 16 |]

(* Everything recorded here is schedule-determined — probe/phase counts,
   attempt totals (injector decisions are pure hashes of endpoint, time
   and attempt number), kex classification — so the merged registry is
   identical at any worker count. The recorder only reads the outcome;
   it never draws randomness or moves a clock, keeping the observation
   stream byte-identical with telemetry off. *)
let record_outcome t ~now ~offer result =
  let obs = t.obs in
  (* The one telemetry-on test: a null recorder would discard the
     attribute lists and instrument names built below. *)
  if Obs.Recorder.enabled obs then begin
    let phase =
      match offer with
      | Tls.Client.Fresh -> "fresh"
      | Tls.Client.Offer_session_id _ -> "session_id"
      | Tls.Client.Offer_ticket _ -> "ticket"
    in
    Obs.Recorder.incr obs "probe.connects";
    Obs.Recorder.event obs ~name:"probe.phase.connect" ~attrs:[ ("offer", phase) ] ~at:now ();
    let attempts = match result with Ok (_, n) | Error (_, n) -> n in
    Obs.Recorder.add obs "probe.attempts" attempts;
    Obs.Recorder.observe obs "probe.retry.attempts" ~bounds:retry_bounds attempts;
    (match result with
    | Error _ -> Obs.Recorder.incr obs "probe.failures"
    | Ok ((outcome : Tls.Engine.outcome), _) ->
        if outcome.Tls.Engine.ok then Obs.Recorder.incr obs "probe.successes"
        else Obs.Recorder.incr obs "probe.failures";
        (match outcome.Tls.Engine.resumed with
        | `No -> (
            Obs.Recorder.incr obs "probe.resumed.none";
            (* A full handshake ran a key exchange. *)
            match outcome.Tls.Engine.cipher with
            | None -> ()
            | Some suite ->
                let kex =
                  match Tls.Types.suite_kex suite with
                  | Tls.Types.Dhe -> "dhe"
                  | Tls.Types.Ecdhe -> "ecdhe"
                  | Tls.Types.Static_ecdh -> "static_ecdh"
                in
                Obs.Recorder.incr obs ("probe.kex." ^ kex);
                Obs.Recorder.event obs ~name:"probe.phase.kex" ~attrs:[ ("kex", kex) ] ~at:now
                  ())
        | `Via_session_id ->
            Obs.Recorder.incr obs "probe.resumed.session_id";
            Obs.Recorder.event obs ~name:"probe.phase.resume"
              ~attrs:[ ("via", "session_id") ] ~at:now ()
        | `Via_ticket ->
            Obs.Recorder.incr obs "probe.resumed.ticket";
            Obs.Recorder.event obs ~name:"probe.phase.resume" ~attrs:[ ("via", "ticket") ]
              ~at:now ());
        match outcome.Tls.Engine.new_ticket with
        | Some _ ->
            Obs.Recorder.incr obs "probe.tickets.issued";
            Obs.Recorder.event obs ~name:"probe.phase.ticket" ~at:now ()
        | None -> ())
  end

let connect ?(offer = Tls.Client.Fresh) t ~domain =
  let now = Simnet.Clock.now t.clock in
  let result =
    Faults.Net.attempt t.net ~hostname:domain ~now ~connect:(fun () ->
        Simnet.World.connect ~clock:t.clock t.world ~client:t.client ~hostname:domain ~offer)
  in
  record_outcome t ~now ~offer result;
  match result with
  | Ok (outcome, attempts) -> (observe ~attempts t ~domain outcome ~now, Some outcome)
  | Error (failure, attempts) ->
      ( Observation.failed_conn ~failure ~attempts
          ~region:(Simnet.World.region t.world) ~time:now ~domain (),
        None )

(* The client-side state needed to attempt a resumption later. *)
type resumable = {
  session : Tls.Session.t option;
  ticket : (int * string) option;
}

let resumable_of_outcome = function
  | None -> { session = None; ticket = None }
  | Some (o : Tls.Engine.outcome) ->
      { session = o.Tls.Engine.session; ticket = o.Tls.Engine.new_ticket }

let offer_session_id r =
  match r.session with
  | Some s when Tls.Session.id s <> "" -> Some (Tls.Client.Offer_session_id s)
  | _ -> None

let offer_ticket r =
  match (r.ticket, r.session) with
  | Some (_, ticket), Some session -> Some (Tls.Client.Offer_ticket { ticket; session })
  | _ -> None
