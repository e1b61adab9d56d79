(* Construction of the simulated HTTPS Internet.

   The world stands in for the Alexa Top Million: a ranked population of
   domains, each served by an *endpoint* (an SSL terminator or terminator
   fleet) holding the mutable TLS secret state — session cache, STEK
   manager, ephemeral key-exchange cache. Endpoints may serve many domains
   (that is the state sharing of Section 5) and restart on schedules
   (which bounds per-process secrets). The population mixes:

   - the named giant operators of {!Operators} (CloudFlare, Google, ...),
   - the case-study domains of {!Notable} (yahoo.com, netflix.com, ...),
   - shared-hosting pods and independent long-tail sites drawn from the
     calibrated distributions in {!Profile}.

   Because simulating 10^6 servers is wasteful, the world *samples* the
   million: each sampled domain carries a weight (how many real domains it
   represents), ranks 1..1000 are sampled exhaustively (weight 1), and the
   analyses report weighted counts. The default scale keeps every
   behaviour class populated while a full 63-day campaign runs in
   seconds. *)

module T = Tls.Types

let universe = 1_000_000
let day = Clock.day

(* The longitudinal campaign begins this many days after world start (the
   point experiments of the study timeline run first); seeded case-study
   rotation schedules account for it so their measured spans match the
   paper's. *)
let case_study_lead_days = 3

type config = {
  seed : string;
  n_domains : int; (* sampled population size *)
  region : Region.t; (* scan vantage; the default reproduces the paper *)
}

let default_config = { seed = "tlsharm"; n_domains = 10_000; region = Region.default_name }

(* Epoch seconds at which the study begins: March 2, 2016, the paper's
   first scan day. *)
let start_time = 1_456_876_800

(* Share of domains present in the list every day. *)
let stable_fraction = 0.55

(* Share of domains whose MX points at Google (9.1%). *)
let mx_google_fraction = 0.091

(* --- Endpoints ---------------------------------------------------------------- *)

(* One server process in a farm. Processes have their own ephemeral-value
   caches and (when the STEK policy is per-process) their own STEK, and
   restart independently — which is what produces the scan jitter the
   paper describes (a load balancer without client affinity hands
   consecutive connections to different processes with different
   values). *)
type slot = {
  sl_index : int;
  sl_kex : Tls.Kex_cache.t;
  sl_stek : Tls.Stek_manager.t option;
  sl_servers : (string, Tls.Server.t) Hashtbl.t;
  mutable sl_next_restart : int option;
  mutable sl_scheduled : int list; (* ascending epoch seconds *)
  sl_rng : Crypto.Rng.t;
}

type endpoint = {
  ep_id : int;
  ep_operator : string;
  ep_label : string;
  ep_asn : int;
  ep_ips : int array; (* candidate addresses; a domain maps to one *)
  ep_failure_rate : float;
  ep_session_cache : Tls.Session_cache.t option; (* shared across the farm *)
  ep_flush_cache_on_restart : bool;
  ep_restart_period : int option; (* jittered-periodic process restarts *)
  ep_slots : slot array;
  ep_rng : Crypto.Rng.t;
}

(* How an endpoint's STEK is provisioned: one synchronized key (a key
   file or rotation infrastructure) across the whole farm, or a random
   per-process key in every slot. *)
type stek_spec =
  | Shared_stek of Tls.Stek_manager.t
  | Per_slot_stek of string (* derivation label *)

(* Per-endpoint behaviour shared by all its domains' servers. [b_env] is
   the TLS environment every server on the endpoint runs under — uniform
   per endpoint because the slot-shared {!Tls.Kex_cache} hands the same
   cached DHE keypair to every server on the slot, so two servers with
   different groups on one endpoint would serve incoherent values. *)
type behavior = {
  b_env : Tls.Config.env;
  b_suites : T.cipher_suite list;
  b_issue_ids : bool;
  b_ticket : (int * int * bool) option; (* hint, accept, reissue *)
}

type domain = {
  d_name : string;
  mutable d_rank : int;
  mutable d_weight : float;
  d_operator : string;
  d_endpoint : endpoint option;
  d_ip : int; (* the A record used when connecting *)
  d_trusted : bool;
  d_mx_google : bool;
  d_stable : bool;
  d_presence_p : float;
  d_misconfig : Profile.misconfig; (* effective at this world's region *)
}

type t = {
  config : config;
  env : Tls.Config.env;
  root_store : Tls.Cert.root_store;
  root_ca : Tls.Cert.authority;
  intermediate_ca : Tls.Cert.authority;
  rogue_ca : Tls.Cert.authority; (* issuer of untrusted chains *)
  clock : Clock.t;
  domains : domain array;
  by_name : (string, domain) Hashtbl.t;
  endpoints : endpoint list;
  by_asn : (int, string list) Hashtbl.t; (* ASN -> domain names *)
  by_ip : (int, string list) Hashtbl.t;
  operator_steks : (string, Tls.Stek_manager.t) Hashtbl.t;
  service_hosts : (string, endpoint) Hashtbl.t;
      (* non-web TLS endpoints (mail servers); section 7.2 probes these *)
}

let clock t = t.clock
let env t = t.env
let region t = t.config.region
let root_store t = t.root_store
let domains t = t.domains
let find_domain t name = Hashtbl.find_opt t.by_name name
let operator_stek t op = Hashtbl.find_opt t.operator_steks op

let domain_name d = d.d_name
let domain_rank d = d.d_rank
let domain_weight d = d.d_weight
let domain_operator d = d.d_operator
let domain_trusted d = d.d_trusted
let domain_has_https d = d.d_endpoint <> None
let domain_stable d = d.d_stable
let domain_ip d = d.d_ip
let domain_asn d = match d.d_endpoint with Some ep -> ep.ep_asn | None -> 0
let domain_misconfig d = d.d_misconfig

(* --- Shard accessors ------------------------------------------------------------

   Identifiers of every shared-secret-state component a domain's
   connections can mutate. Two domains may be scanned concurrently iff
   the transitive closure of these keys keeps them apart:

   - ["ep:<id>"] — the endpoint: its session cache, per-slot ephemeral
     key-exchange caches, per-slot servers and the failure/affinity RNGs
     are all endpoint-scoped, so this one key subsumes the session-cache
     and operator-pod edges of Section 5;
   - ["stek:<id>"] — each slot's STEK manager, keyed by the identity of
     its key material: operator-scoped STEKs (CloudFlare) and the seeded
     cross-operator clusters (Jack Henry) span endpoints, which is
     exactly the cross-domain sharing that forbids independent scans.

   Domains without HTTPS touch no server state and return no keys. *)

let domain_shard_keys _t d =
  match d.d_endpoint with
  | None -> []
  | Some ep ->
      let keys = ref [ Printf.sprintf "ep:%d" ep.ep_id ] in
      Array.iter
        (fun slot ->
          match slot.sl_stek with
          | None -> ()
          | Some m -> keys := ("stek:" ^ Tls.Stek_manager.id m) :: !keys)
        ep.ep_slots;
      List.sort_uniq compare !keys

(* --- Builder ------------------------------------------------------------------- *)

type builder = {
  bc : config;
  benv : Tls.Config.env;
  brng : Crypto.Rng.t;
  broot : Tls.Cert.authority;
  bintermediate : Tls.Cert.authority;
  brogue : Tls.Cert.authority;
  mutable bep_id : int;
  mutable bips : int;
  mutable bdomains : domain list;
  mutable bendpoints : endpoint list;
  bsteks : (string, Tls.Stek_manager.t) Hashtbl.t;
  bservice_hosts : (string, endpoint) Hashtbl.t;
}

let fresh_ip b =
  b.bips <- b.bips + 1;
  b.bips

(* --- Regional misconfiguration overrides ------------------------------------

   A non-default region's world differs from the default vantage only in
   the configurations of regionally-inconsistent operators. Every
   decision below is a hash of (seed, operator[, region]) or a dedicated
   Rng seeded from them — never the sequential builder Rng — so adding
   or changing overrides cannot shift any other draw: certificates,
   ranks, endpoints and secrets are byte-identical across regions. *)

let hash01 s =
  let h = Crypto.Sha256.digest s in
  float_of_int (Char.code h.[0] land 0x7f) /. 128.0

(* Calibrated to Alashwali et al.'s headline: a clear minority of
   domains serve different configs by region. ~10% of tail operators are
   inconsistent at all, and an inconsistent operator downgrades from
   about half of the non-default vantages. *)
let tail_inconsistent_p = 0.10
let region_downgrade_p = 0.5

let effective_misconfig (bc : config) ~operator ~note ~base =
  if String.equal bc.region Region.default_name then base
  else
    let inconsistent =
      match note with
      | `Inconsistent -> true
      | `Consistent -> false
      | `Tail ->
          hash01 (Printf.sprintf "region-eligible:%s:%s" bc.seed operator)
          < tail_inconsistent_p
    in
    if not inconsistent then base
    else if
      hash01 (Printf.sprintf "region-downgrade:%s:%s:%s" bc.seed bc.region operator)
      >= region_downgrade_p
    then base
    else
      let rng =
        Crypto.Rng.create
          ~seed:(Printf.sprintf "%s:region:%s:%s" bc.seed bc.region operator)
      in
      Profile.misconfig_combine base (Profile.sample_downgrade rng)

(* The TLS environment a misconfiguration implies: an undersized DH
   group replaces the env default. Groups are derived from the world
   seed alone (not the operator), matching reality — weak deployments
   overwhelmingly share the same few export-grade groups, which is what
   made LOGJAM a mass attack. [Dh.generate] memoizes, so every weak
   endpoint shares one physical group object. *)
let misconfig_env b (m : Profile.misconfig) =
  match m.Profile.weak_dh with
  | None -> b.benv
  | Some grade ->
      let bits = match grade with Profile.Export_grade -> 24 | Profile.Legacy -> 40 in
      { b.benv with Tls.Config.dh_group = Crypto.Dh.generate ~bits ~seed:b.bc.seed }

(* Restarts are jittered-periodic (period x 0.8..1.2), like cron-driven
   deployments: exponential gaps would make the *maximum* gap over nine
   weeks several times the mean and inflate every span statistic. *)
let next_restart_gap rng period =
  max 600 (int_of_float (float_of_int period *. (0.8 +. (0.4 *. Crypto.Rng.float01 rng))))

let make_endpoint b ~operator ~label ~asn ~ip_count ~cache_lifetime ~stek ~dhe ~ecdhe
    ?(failure_rate = 0.01) ?(flush_on_restart = true) ?(n_slots = 1) ?restart_period
    ?(restart_days = []) () =
  b.bep_id <- b.bep_id + 1;
  let rng = Crypto.Rng.fork b.brng ~label:(Printf.sprintf "ep:%s:%s:%d" operator label b.bep_id) in
  let slots =
    Array.init (max 1 n_slots) (fun i ->
        let sl_rng = Crypto.Rng.fork rng ~label:(Printf.sprintf "slot%d" i) in
        let sl_stek =
          match stek with
          | None -> None
          | Some (Shared_stek m) -> Some m
          | Some (Per_slot_stek secret_label) ->
              Some
                (Tls.Stek_manager.create ~policy:Tls.Stek_manager.Per_process
                   ~secret:(Printf.sprintf "%s:%s/slot%d" b.bc.seed secret_label i)
                   ~now:start_time)
        in
        let scheduled = List.sort compare restart_days in
        let sl_next_restart =
          (* Independent phase per process; when a fixed schedule exists,
             periodic restarts only begin after it is exhausted. *)
          if scheduled <> [] then None
          else
            Option.map
              (fun period -> start_time + Crypto.Rng.int_below sl_rng (max 1 period))
              restart_period
        in
        {
          sl_index = i;
          sl_kex = Tls.Kex_cache.create ~dhe ~ecdhe ();
          sl_stek;
          sl_servers = Hashtbl.create 8;
          sl_next_restart;
          sl_scheduled = scheduled;
          sl_rng;
        })
  in
  let ep =
    {
      ep_id = b.bep_id;
      ep_operator = operator;
      ep_label = label;
      ep_asn = asn;
      ep_ips = Array.init (max 1 ip_count) (fun _ -> fresh_ip b);
      ep_failure_rate = failure_rate;
      ep_session_cache =
        Option.map
          (fun lifetime -> Tls.Session_cache.create ~lifetime ~capacity:100_000)
          cache_lifetime;
      ep_flush_cache_on_restart = flush_on_restart;
      ep_restart_period = restart_period;
      ep_slots = slots;
      ep_rng = rng;
    }
  in
  b.bendpoints <- ep :: b.bendpoints;
  ep

(* Issue the certificate chain for one domain. Untrusted domains get a
   chain from the rogue CA (not in the root store) or an expired cert. *)
let issue_chain b ~hostname ~trusted =
  let curve = b.benv.Tls.Config.pki_curve in
  let rng = Crypto.Rng.fork b.brng ~label:("cert:" ^ hostname) in
  let keypair = Crypto.Ecdsa.gen_keypair curve rng in
  let pub = Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key keypair) in
  let not_before = start_time - (180 * day) in
  let not_after = start_time + (365 * day) in
  let serial = Crypto.Rng.int_below rng 1_000_000_000 in
  let sans = [ "www." ^ hostname ] in
  if trusted then begin
    (* Most chains go through the intermediate, like real ones do. *)
    if Crypto.Rng.bool rng ~p:0.8 then begin
      let leaf =
        Tls.Cert.issue b.bintermediate ~curve ~subject:hostname ~sans ~not_before ~not_after
          ~serial ~pub rng
      in
      ([ leaf; Tls.Cert.authority_cert b.bintermediate ], keypair)
    end
    else begin
      let leaf =
        Tls.Cert.issue b.broot ~curve ~subject:hostname ~sans ~not_before ~not_after ~serial ~pub
          rng
      in
      ([ leaf ], keypair)
    end
  end
  else if Crypto.Rng.bool rng ~p:0.5 then begin
    (* Chain from an untrusted CA. *)
    let leaf =
      Tls.Cert.issue b.brogue ~curve ~subject:hostname ~sans ~not_before ~not_after ~serial ~pub
        rng
    in
    ([ leaf; Tls.Cert.authority_cert b.brogue ], keypair)
  end
  else begin
    (* Expired certificate from the real CA. *)
    let leaf =
      Tls.Cert.issue b.bintermediate ~curve ~subject:hostname ~sans ~not_before
        ~not_after:(start_time - day) ~serial ~pub rng
    in
    ([ leaf; Tls.Cert.authority_cert b.bintermediate ], keypair)
  end

(* Install [hostname]'s server on every process of [ep]: one certificate
   chain for the farm and one server per slot, each server's Rng forked
   under [fork] ("srv" for web domains, "mail" for mail front-ends). A
   slot serves tickets when the behavior issues them and the slot has a
   STEK. *)
let install_servers b ep ~hostname ~trusted ~behavior ~fork =
  let chain, keypair = issue_chain b ~hostname ~trusted in
  Array.iter
    (fun slot ->
      let ticket_config =
        match (behavior.b_ticket, slot.sl_stek) with
        | Some (hint, accept, reissue), Some manager ->
            Some
              {
                Tls.Config.stek_manager = manager;
                lifetime_hint = hint;
                accept_lifetime = accept;
                reissue_on_resumption = reissue;
              }
        | _ -> None
      in
      let config =
        {
          Tls.Config.env = behavior.b_env;
          suites = behavior.b_suites;
          issue_session_ids = behavior.b_issue_ids;
          session_cache = ep.ep_session_cache;
          tickets = ticket_config;
          kex_cache = slot.sl_kex;
          cert_chain = chain;
          cert_key = keypair;
        }
      in
      let server =
        Tls.Server.create ~config
          ~rng:(Crypto.Rng.fork b.brng ~label:(Printf.sprintf "%s:%s/%d" fork hostname slot.sl_index))
      in
      Hashtbl.replace slot.sl_servers hostname server)
    ep.ep_slots

let add_domain b ~name ~rank ~weight ~operator ~endpoint ~behavior ?(misconfig = Profile.well_configured)
    ~trusted ~mx_google ~stable ~presence_p () =
  let ip =
    match endpoint with
    | None -> 0
    | Some ep ->
        let rng = Crypto.Rng.fork b.brng ~label:("ip:" ^ name) in
        ep.ep_ips.(Crypto.Rng.int_below rng (Array.length ep.ep_ips))
  in
  Option.iter (fun ep -> install_servers b ep ~hostname:name ~trusted ~behavior ~fork:"srv") endpoint;
  b.bdomains <-
    {
      d_name = name;
      d_rank = rank;
      d_weight = weight;
      d_operator = operator;
      d_endpoint = endpoint;
      d_ip = ip;
      d_trusted = (match endpoint with Some _ -> trusted | None -> false);
      d_mx_google = mx_google;
      d_stable = stable;
      d_presence_p = presence_p;
      d_misconfig = (match endpoint with Some _ -> misconfig | None -> Profile.well_configured);
    }
    :: b.bdomains

(* STEK manager shared at the given scope, memoized by label. *)
let stek_manager b ~label ~policy =
  match Hashtbl.find_opt b.bsteks label with
  | Some m -> m
  | None ->
      let m = Tls.Stek_manager.create ~policy ~secret:(b.bc.seed ^ ":stek:" ^ label) ~now:start_time in
      Hashtbl.replace b.bsteks label m;
      m

(* --- Population segments --------------------------------------------------------- *)

let presence_sample rng =
  if Crypto.Rng.bool rng ~p:stable_fraction then (true, 1.0)
  else (false, 0.3 +. (0.67 *. Crypto.Rng.float01 rng))

let mx_sample rng = Crypto.Rng.bool rng ~p:mx_google_fraction

(* Named operators: create pods (endpoints), flagship domains, and sampled
   customer domains with the right weights. *)
let build_operators b ~scale =
  List.iter
    (fun (spec : Operators.spec) ->
      let rng = Crypto.Rng.fork b.brng ~label:("op:" ^ spec.Operators.op_name) in
      let lead = start_time + (case_study_lead_days * day) in
      let stek_of_scope pod_label =
        match spec.Operators.ticket with
        | None -> None
        | Some tc ->
            let label =
              match spec.Operators.stek_scope with
              | `Operator -> spec.Operators.op_name
              | `Pod -> spec.Operators.op_name ^ "/" ^ pod_label
            in
            (* Spec schedules are relative to campaign start. *)
            let policy =
              match tc.Profile.stek with
              | Tls.Stek_manager.Scheduled rel -> Tls.Stek_manager.Scheduled (List.map (fun s -> lead + s) rel)
              | p -> p
            in
            Some (stek_manager b ~label ~policy)
      in
      (* The giants are well-configured at the default vantage; the
         operators whose regional notes mark them inconsistent may serve
         a downgraded config from non-default regions. *)
      let misconfig =
        effective_misconfig b.bc ~operator:spec.Operators.op_name
          ~note:spec.Operators.regional_note ~base:Profile.well_configured
      in
      let behavior =
        {
          b_env = misconfig_env b misconfig;
          b_suites = Profile.misconfig_suites misconfig spec.Operators.suites;
          b_issue_ids = spec.Operators.issue_ids;
          b_ticket =
            Option.map
              (fun tc -> (tc.Profile.hint, tc.Profile.accept, tc.Profile.reissue))
              spec.Operators.ticket;
        }
      in
      let flagship_count = List.length spec.Operators.flagships in
      let customer_total = max 0 (spec.Operators.size - flagship_count) in
      let sampled = max 1 (int_of_float (Float.round (float_of_int customer_total *. scale))) in
      let weight = float_of_int customer_total /. float_of_int sampled in
      (* Build one endpoint per pod and apportion customers to pods. *)
      let pods =
        List.map
          (fun (pod : Operators.pod) ->
            let members =
              max 1 (int_of_float (Float.round (float_of_int sampled *. pod.Operators.pod_share)))
            in
            let ep =
              make_endpoint b ~operator:spec.Operators.op_name ~label:pod.Operators.pod_label
                ~asn:spec.Operators.asn
                ~ip_count:(min 16 (max 1 (members / 6)))
                ~cache_lifetime:pod.Operators.cache_lifetime
                ~stek:(Option.map (fun m -> Shared_stek m) (stek_of_scope pod.Operators.pod_label))
                ~dhe:spec.Operators.dhe_policy ~ecdhe:spec.Operators.ecdhe_policy
                ~failure_rate:0.005 ~flush_on_restart:false ~n_slots:4
                ?restart_period:
                  (match spec.Operators.restart_day with Some _ -> Some day | None -> None)
                ~restart_days:
                  (match spec.Operators.restart_day with
                  | Some d -> [ lead + (d * day) ]
                  | None -> [])
                ()
            in
            (ep, members))
          spec.Operators.pods
      in
      (* Flagship domains on the first pod. *)
      (match pods with
      | (first_pod, _) :: _ ->
          List.iter
            (fun (name, rank) ->
              add_domain b ~name ~rank ~weight:1.0 ~operator:spec.Operators.op_name
                ~endpoint:(Some first_pod) ~behavior ~misconfig ~trusted:true
                ~mx_google:(spec.Operators.op_name = "google")
                ~stable:true ~presence_p:1.0 ())
            spec.Operators.flagships
      | [] -> ());
      (* Sampled customer domains. *)
      let customer_index = ref 0 in
      List.iter
        (fun (ep, members) ->
          for _ = 1 to members do
            let name =
              Namegen.operator_domain ~operator:spec.Operators.op_name !customer_index
            in
            incr customer_index;
            let stable, presence_p = presence_sample rng in
            add_domain b ~name ~rank:0 ~weight ~operator:spec.Operators.op_name
              ~endpoint:(Some ep) ~behavior ~misconfig ~trusted:true
              ~mx_google:(mx_sample rng)
              ~stable ~presence_p ()
          done)
        pods)
    Operators.all

(* Mail front-ends for MX-providing operators: the same STEK manager
   serves SMTP/IMAPS, which is the section 7.2 cross-protocol finding. *)
let mx_host_of_operator op = Printf.sprintf "aspmx.%s-mail.example" op

let build_mail_hosts b =
  List.iter
    (fun (spec : Operators.spec) ->
      if spec.Operators.mx_provider then begin
        match (spec.Operators.ticket, Hashtbl.find_opt b.bsteks spec.Operators.op_name) with
        | Some tc, Some manager ->
            let host = mx_host_of_operator spec.Operators.op_name in
            let ep =
              make_endpoint b ~operator:spec.Operators.op_name ~label:"mail"
                ~asn:spec.Operators.asn ~ip_count:4 ~cache_lifetime:None
                ~stek:(Some (Shared_stek manager)) ~dhe:spec.Operators.dhe_policy
                ~ecdhe:spec.Operators.ecdhe_policy ~failure_rate:0.005
                ~flush_on_restart:false ~n_slots:4 ()
            in
            let behavior =
              {
                b_env = b.benv;
                b_suites = spec.Operators.suites;
                b_issue_ids = true;
                b_ticket = Some (tc.Profile.hint, tc.Profile.accept, tc.Profile.reissue);
              }
            in
            install_servers b ep ~hostname:host ~trusted:true ~behavior ~fork:"mail";
            Hashtbl.replace b.bservice_hosts host ep
        | _ -> ()
      end)
    Operators.all

(* Case-study domains, each on its own endpoint (except shared STEKs). *)
let build_notables b =
  let hour = Clock.hour in
  List.iter
    (fun (n : Notable.t) ->
      let name = n.Notable.name in
      let lead = start_time + (case_study_lead_days * day) in
      let stek_policy =
        match n.Notable.stek with
        | `Span d when d >= 63 -> Some Tls.Stek_manager.Static
        | `Span d -> Some (Tls.Stek_manager.Scheduled [ lead + (d * day) ])
        | `Daily ->
            Some (Tls.Stek_manager.Rotate_every { period = day; accept_window = 2 * hour })
        | `No_tickets -> None
      in
      let stek =
        match stek_policy with
        | None -> None
        | Some policy ->
            let label = Option.value n.Notable.shared_stek ~default:("notable:" ^ name) in
            Some (Shared_stek (stek_manager b ~label ~policy))
      in
      (* Seeded key-exchange reuse: the value lives until one scheduled
         rotation at the seeded span (counted from campaign start), after
         which daily restarts keep successor values short-lived — so the
         campaign's max (value, domain) span equals the seed. *)
      let dhe =
        match n.Notable.dhe_span with
        | Some _ -> Tls.Kex_cache.Reuse_forever
        | None -> Tls.Kex_cache.Fresh_always
      in
      let ecdhe =
        match n.Notable.ecdhe_span with
        | Some _ -> Tls.Kex_cache.Reuse_forever
        | None -> Tls.Kex_cache.Fresh_always
      in
      let restart_days =
        match Notable.kex_restart_day n with
        | Some d when d < 63 -> [ lead + (d * day) ]
        | Some _ | None -> []
      in
      let asn = 1000 + Hashtbl.hash name mod 60000 in
      let ep =
        make_endpoint b ~operator:("site:" ^ name) ~label:"main" ~asn ~ip_count:2
          ~cache_lifetime:(Some (5 * Clock.minute))
          ~stek ~dhe ~ecdhe ~failure_rate:0.005 ~flush_on_restart:false ~n_slots:2
          ?restart_period:(if restart_days = [] then None else Some day)
          ~restart_days ()
      in
      let suites =
        if n.Notable.supports_dhe then T.all_cipher_suites
        else [ T.ECDHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256 ]
      in
      let accept = Option.value n.Notable.hint_override ~default:hour in
      (* Case-study sites are single-site operations: what they serve,
         they serve from every vantage. *)
      let behavior =
        {
          b_env = b.benv;
          b_suites = suites;
          b_issue_ids = true;
          b_ticket = (if stek = None then None else Some (accept, accept, true));
        }
      in
      add_domain b ~name ~rank:n.Notable.rank ~weight:1.0 ~operator:("site:" ^ name)
        ~endpoint:(Some ep) ~behavior ~trusted:true ~mx_google:false ~stable:true ~presence_p:1.0
        ())
    Notable.all

(* The long tail: shared-hosting pods plus independent sites, drawn from
   the calibrated profile distributions. *)
let build_tail b ~count ~weight =
  let rng = Crypto.Rng.fork b.brng ~label:"tail" in
  let hosting_asns = Array.init 60 (fun i -> 64_000 + i) in
  let solo_asns = Array.init 2_000 (fun i -> 3_000 + i) in
  (* A currently-filling shared-hosting pod, if any. *)
  let pod_slot = ref None in
  let endpoint_for_profile ~label ~asn ~ip_count ?(n_slots = 1) (p : Profile.t) =
    let stek =
      match p.Profile.ticket with
      | None -> None
      | Some tp -> (
          match tp.Profile.stek with
          | Tls.Stek_manager.Per_process -> Some (Per_slot_stek ("tail:" ^ label))
          | policy -> Some (Shared_stek (stek_manager b ~label:("tail:" ^ label) ~policy)))
    in
    make_endpoint b ~operator:label ~label:"main" ~asn ~ip_count ~n_slots
      ~cache_lifetime:p.Profile.cache_lifetime ~stek ~dhe:p.Profile.dhe_policy
      ~ecdhe:p.Profile.ecdhe_policy ~failure_rate:p.Profile.failure_rate
      ?restart_period:p.Profile.restart_mean ()
  in
  let behavior_of misconfig (p : Profile.t) =
    {
      b_env = misconfig_env b misconfig;
      b_suites = Profile.misconfig_suites misconfig p.Profile.suites;
      b_issue_ids = p.Profile.issue_ids;
      b_ticket =
        Option.map (fun tp -> (tp.Profile.hint, tp.Profile.accept, tp.Profile.reissue)) p.Profile.ticket;
    }
  in
  for i = 0 to count - 1 do
    let name = Namegen.domain i in
    let stable, presence_p = presence_sample rng in
    let mx_google = mx_sample rng in
    (* 15% of HTTPS tail sites live with shared-hosting providers whose
       terminators serve 50..1200 real domains; the sampled pod size is
       that target divided by the sampling weight, keeping weighted group
       sizes scale-invariant. *)
    let use_shared = Crypto.Rng.bool rng ~p:0.15 in
    let profile, endpoint =
      if use_shared then begin
        match !pod_slot with
        | Some (profile, ep, remaining) when remaining > 0 ->
            pod_slot := Some (profile, ep, remaining - 1);
            (profile, if profile.Profile.https then Some ep else None)
        | _ ->
            let profile = Profile.sample_tail rng in
            if not profile.Profile.https then (profile, None)
            else begin
              let target_weighted =
                50.0 *. exp (Crypto.Rng.float01 rng *. log (1200.0 /. 50.0))
              in
              let capacity = max 1 (int_of_float (Float.round (target_weighted /. weight))) in
              let asn = Crypto.Rng.pick rng hosting_asns in
              let ep =
                endpoint_for_profile ~label:(Printf.sprintf "hosting%d" i) ~asn ~ip_count:2 profile
              in
              pod_slot := Some (profile, ep, capacity - 1);
              (profile, Some ep)
            end
      end
      else begin
        let profile = Profile.sample_tail rng in
        if not profile.Profile.https then (profile, None)
        else begin
          let asn = Crypto.Rng.pick rng solo_asns in
          (* ~15% of independent sites run small load-balanced farms
             without client affinity. *)
          let n_slots =
            if Crypto.Rng.bool rng ~p:0.15 then Crypto.Rng.int_range rng 2 4 else 1
          in
          ( profile,
            Some
              (endpoint_for_profile
                 ~label:(Printf.sprintf "solo%d" i)
                 ~asn ~ip_count:1 ~n_slots profile) )
        end
      end
    in
    let operator = match endpoint with Some ep -> ep.ep_operator | None -> "tail" in
    (* The tail's base misconfiguration is part of its sampled profile
       (shared by every member of a hosting pod); the regional override
       is keyed on the operator label, so pod members stay coherent. *)
    let misconfig =
      match endpoint with
      | None -> Profile.well_configured
      | Some _ ->
          effective_misconfig b.bc ~operator ~note:`Tail ~base:profile.Profile.misconfig
    in
    add_domain b ~name ~rank:0 ~weight ~operator ~endpoint
      ~behavior:(behavior_of misconfig profile) ~misconfig ~trusted:profile.Profile.trusted
      ~mx_google ~stable ~presence_p ()
  done

(* --- Rank assignment --------------------------------------------------------------- *)

let assign_ranks b domains =
  let rng = Crypto.Rng.fork b.brng ~label:"ranks" in
  let used = Hashtbl.create 1024 in
  Array.iter (fun d -> if d.d_rank > 0 then Hashtbl.replace used d.d_rank ()) domains;
  let unranked =
    Array.of_list (Array.to_list domains |> List.filter (fun d -> d.d_rank = 0))
  in
  Crypto.Rng.shuffle rng unranked;
  (* Fill ranks 1..1000 exhaustively, then scatter the rest over
     1001..1M without collisions. *)
  let next_low = ref 1 in
  let advance_low () =
    while !next_low <= 1000 && Hashtbl.mem used !next_low do
      incr next_low
    done
  in
  advance_low ();
  Array.iter
    (fun d ->
      if !next_low <= 1000 then begin
        d.d_rank <- !next_low;
        Hashtbl.replace used !next_low ();
        advance_low ()
      end
      else begin
        let rec draw () =
          let r = 1001 + Crypto.Rng.int_below rng (universe - 1000) in
          if Hashtbl.mem used r then draw () else r
        in
        let r = draw () in
        d.d_rank <- r;
        Hashtbl.replace used r ()
      end)
    unranked;
  (* Stratified sampling weights: ranks 1..1000 are enumerated
     exhaustively (weight 1); certainty samples (notables, flagships,
     built with weight 1) represent themselves; everything else splits
     the rest of the million evenly. This makes weighted counts estimate
     Top Million absolutes (Horvitz-Thompson). *)
  let certainty d = d.d_rank <= 1000 || d.d_weight = 1.0 in
  let n_tail = Array.fold_left (fun acc d -> if certainty d then acc else acc + 1) 0 domains in
  let certainty_mass =
    Array.fold_left (fun acc d -> if certainty d then acc +. 1.0 else acc) 0.0 domains
  in
  let w = (float_of_int universe -. certainty_mass) /. float_of_int (max 1 n_tail) in
  Array.iter (fun d -> d.d_weight <- (if certainty d then 1.0 else w)) domains

(* --- Assembly ------------------------------------------------------------------------ *)

let min_domains = 1500

let create ?(config = default_config) () =
  if config.n_domains < min_domains then
    invalid_arg (Printf.sprintf "World.create: need at least %d domains" min_domains);
  if not (Region.is_valid config.region) then
    invalid_arg
      (Printf.sprintf "World.create: unknown region %S (available: %s)" config.region
         Region.names);
  let env = Tls.Config.sim_env ~seed:config.seed () in
  let rng = Crypto.Rng.create ~seed:("world:" ^ config.seed) in
  let curve = env.Tls.Config.pki_curve in
  let ca_rng = Crypto.Rng.fork rng ~label:"pki" in
  let not_before = start_time - (3650 * day) in
  let not_after = start_time + (3650 * day) in
  let root_ca =
    Tls.Cert.self_signed ~curve ~name:"SimTrust Root CA" ~not_before ~not_after ~serial:1 ca_rng
  in
  let intermediate_keypair = Crypto.Ecdsa.gen_keypair curve ca_rng in
  let intermediate_cert =
    Tls.Cert.issue root_ca ~curve ~subject:"SimTrust Issuing CA" ~is_ca:true ~not_before
      ~not_after ~serial:2
      ~pub:(Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key intermediate_keypair))
      ca_rng
  in
  let intermediate_ca =
    Tls.Cert.authority_of ~cert:intermediate_cert ~keypair:intermediate_keypair
  in
  let rogue_ca =
    Tls.Cert.self_signed ~curve ~name:"Shady CA Inc" ~not_before ~not_after ~serial:3 ca_rng
  in
  let root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert root_ca ] in
  let b =
    {
      bc = config;
      benv = env;
      brng = rng;
      broot = root_ca;
      bintermediate = intermediate_ca;
      brogue = rogue_ca;
      bep_id = 0;
      bips = 0;
      bdomains = [];
      bendpoints = [];
      bsteks = Hashtbl.create 64;
      bservice_hosts = Hashtbl.create 8;
    }
  in
  let scale = float_of_int config.n_domains /. float_of_int universe in
  build_operators b ~scale;
  build_mail_hosts b;
  build_notables b;
  let built = List.length b.bdomains in
  let tail_count = max 0 (config.n_domains - built) in
  (* Tail weight: whatever share of the universe is not represented by the
     named segments, spread over the tail samples. *)
  let represented =
    List.fold_left (fun acc d -> acc +. d.d_weight) 0.0 b.bdomains
  in
  let tail_weight = (float_of_int universe -. represented) /. float_of_int (max 1 tail_count) in
  build_tail b ~count:tail_count ~weight:tail_weight;
  let domains = Array.of_list (List.rev b.bdomains) in
  assign_ranks b domains;
  Array.sort (fun d1 d2 -> compare d1.d_rank d2.d_rank) domains;
  let by_name = Hashtbl.create (Array.length domains) in
  let by_asn = Hashtbl.create 1024 in
  let by_ip = Hashtbl.create 4096 in
  Array.iter
    (fun d ->
      Hashtbl.replace by_name d.d_name d;
      match d.d_endpoint with
      | None -> ()
      | Some ep ->
          Hashtbl.replace by_asn ep.ep_asn
            (d.d_name :: Option.value ~default:[] (Hashtbl.find_opt by_asn ep.ep_asn));
          Hashtbl.replace by_ip d.d_ip
            (d.d_name :: Option.value ~default:[] (Hashtbl.find_opt by_ip d.d_ip)))
    domains;
  {
    config;
    env;
    root_store;
    root_ca;
    intermediate_ca;
    rogue_ca;
    clock = Clock.create ~start:start_time ();
    domains;
    by_name;
    endpoints = List.rev b.bendpoints;
    by_asn;
    by_ip;
    operator_steks = b.bsteks;
    service_hosts = b.bservice_hosts;
  }

(* --- Presence (Alexa churn) ----------------------------------------------------------- *)

(* Deterministic membership of [name] in the list on [day]. *)
let in_list_on_day d ~day:day_index =
  d.d_stable
  ||
  let h = Crypto.Sha256.digest (Printf.sprintf "presence:%s:%d" d.d_name day_index) in
  float_of_int (Char.code h.[0] land 0x7f) /. 128.0 < d.d_presence_p

(* --- Process restarts ------------------------------------------------------------------ *)

(* Restart one process: its ephemeral cache and per-process STEK die;
   small deployments also lose their in-process session cache. *)
let do_restart ep slot ~at =
  Tls.Kex_cache.restart slot.sl_kex;
  Option.iter (fun m -> Tls.Stek_manager.restart m ~now:at) slot.sl_stek;
  if ep.ep_flush_cache_on_restart then
    Option.iter Tls.Session_cache.flush ep.ep_session_cache

let rec process_slot_restarts ep slot ~now =
  match slot.sl_scheduled with
  | at :: rest when at <= now ->
      slot.sl_scheduled <- rest;
      do_restart ep slot ~at;
      (* Once the fixed schedule is exhausted, periodic restarts begin. *)
      (match (rest, ep.ep_restart_period, slot.sl_next_restart) with
      | [], Some period, None -> slot.sl_next_restart <- Some (at + next_restart_gap slot.sl_rng period)
      | _ -> ());
      process_slot_restarts ep slot ~now
  | _ -> (
      match slot.sl_next_restart with
      | Some at when at <= now ->
          do_restart ep slot ~at;
          let period = Option.value ep.ep_restart_period ~default:(30 * day) in
          slot.sl_next_restart <- Some (at + next_restart_gap slot.sl_rng period);
          process_slot_restarts ep slot ~now
      | _ -> ())

let process_restarts ep ~now =
  Array.iter (fun slot -> process_slot_restarts ep slot ~now) ep.ep_slots

(* --- Connecting -------------------------------------------------------------------------- *)

type connect_error = No_such_domain | No_https | Connection_failed

(* The endpoint step of every connection: due restarts, the failure
   draw, then a process of the farm. No client affinity: the load
   balancer hands each connection to an arbitrary process. *)
let connect_endpoint ep ~now ~client ~hostname ~offer =
  process_restarts ep ~now;
  if Crypto.Rng.bool ep.ep_rng ~p:ep.ep_failure_rate then Error Connection_failed
  else
    let slot = ep.ep_slots.(Crypto.Rng.int_below ep.ep_rng (Array.length ep.ep_slots)) in
    match Hashtbl.find_opt slot.sl_servers hostname with
    | None -> Error No_https
    | Some server -> Ok (Tls.Engine.connect client server ~now ~hostname ~offer)

(* Connect to a non-web TLS service host (a mail front-end). [clock]
   overrides the world clock; a parallel campaign shard reads time from
   its own clock while touching only its shard's endpoints. *)
let connect_service_host ?clock t ~client ~hostname ~offer =
  match Hashtbl.find_opt t.service_hosts hostname with
  | None -> Error No_such_domain
  | Some ep ->
      let now = Clock.now (Option.value clock ~default:t.clock) in
      connect_endpoint ep ~now ~client ~hostname ~offer

(* MX resolution: the hostname a domain's mail is delivered to, if its
   provider runs TLS mail front-ends we model. *)
let mx_host _t d = if d.d_mx_google then Some (mx_host_of_operator "google") else None

let connect ?clock t ~client ~hostname ~offer =
  match Hashtbl.find_opt t.by_name hostname with
  | None -> connect_service_host ?clock t ~client ~hostname ~offer
  | Some { d_endpoint = None; _ } -> Error No_https
  | Some { d_endpoint = Some ep; _ } ->
      let now = Clock.now (Option.value clock ~default:t.clock) in
      connect_endpoint ep ~now ~client ~hostname ~offer

(* Endpoint identity for the fault layer: which terminator a hostname's
   connections land on, and who operates it (fault profiles are
   per-operator). Covers web domains and modeled service hosts; [None]
   for unknown names and HTTPS-less domains, which never reach an
   endpoint in [connect] either. *)
let endpoint_info t hostname =
  let of_ep ep = (ep.ep_id, ep.ep_operator) in
  match Hashtbl.find_opt t.by_name hostname with
  | Some d -> Option.map of_ep d.d_endpoint
  | None -> Option.map of_ep (Hashtbl.find_opt t.service_hosts hostname)

(* Neighbour queries used by the cross-domain probing experiments. *)
let domains_in_asn t asn = Option.value ~default:[] (Hashtbl.find_opt t.by_asn asn)
let domains_on_ip t ip = Option.value ~default:[] (Hashtbl.find_opt t.by_ip ip)

(* DNS: MX resolution for the section 7.2 analysis. *)
let mx_points_to_google d = d.d_mx_google
