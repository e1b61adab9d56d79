(* Behavioural profiles for simulated HTTPS deployments.

   This module is the calibration table of the reproduction: each
   distribution below is matched to a number reported in the paper
   (Table 1, Figures 1-5, and the prose of Sections 4 and 6) or to the
   documented defaults of the server software the paper names (Apache,
   Nginx, IIS). The long tail of one-domain operators is sampled from
   [sample_tail]; the handful of giant operators that dominate the
   sharing analyses (CloudFlare, Google, ...) are described separately in
   {!Operators}. All percentages quoted in comments are fractions of
   browser-trusted HTTPS domains unless stated otherwise. *)

module T = Tls.Types

type ticket = {
  hint : int; (* advertised lifetime hint, seconds; 0 = unspecified *)
  accept : int; (* how long tickets actually resume *)
  stek : Tls.Stek_manager.policy;
  reissue : bool;
}

(* Misconfiguration taxonomy, after the classic server-test checklist
   (LOGJAM-grade DH groups, static-key-exchange-only endpoints, stale
   cipher menus). Orthogonal to the crypto-shortcut axis: a site can
   rotate its STEK daily and still negotiate an export-grade DH group. *)
type weak_dh =
  | Export_grade (* LOGJAM-class export group *)
  | Legacy (* undersized but not export-grade *)

type misconfig = {
  weak_dh : weak_dh option; (* served DHE group is undersized *)
  static_only : bool; (* static key exchange only (no FS at all) *)
  stale_order : bool; (* prefers obsolete suites over modern ones *)
}

type t = {
  https : bool;
  trusted : bool; (* presents a browser-trusted chain *)
  suites : T.cipher_suite list; (* preference order *)
  issue_ids : bool; (* sets a session ID in ServerHello *)
  cache_lifetime : int option; (* None = never resumes by ID *)
  ticket : ticket option;
  dhe_policy : Tls.Kex_cache.policy;
  ecdhe_policy : Tls.Kex_cache.policy;
  restart_mean : int option; (* mean seconds between process restarts *)
  failure_rate : float; (* transient per-connection failure probability *)
  misconfig : misconfig;
}

let well_configured = { weak_dh = None; static_only = false; stale_order = false }

(* One additive severity scale for combined-harm ranking: export-grade DH
   (actively exploitable key recovery) > no forward secrecy at all >
   merely undersized DH > a stale preference order. *)
let misconfig_severity m =
  (match m.weak_dh with Some Export_grade -> 4 | Some Legacy -> 2 | None -> 0)
  + (if m.static_only then 3 else 0)
  + if m.stale_order then 1 else 0

let misconfig_label m =
  let parts =
    (match m.weak_dh with
    | Some Export_grade -> [ "export-dh" ]
    | Some Legacy -> [ "legacy-dh" ]
    | None -> [])
    @ (if m.static_only then [ "static-only" ] else [])
    @ if m.stale_order then [ "stale-order" ] else []
  in
  match parts with [] -> "clean" | _ -> String.concat "+" parts

(* The worse of two configurations, used when a regional override
   degrades an already-imperfect base profile. *)
let misconfig_combine a b =
  {
    weak_dh =
      (match (a.weak_dh, b.weak_dh) with
      | Some Export_grade, _ | _, Some Export_grade -> Some Export_grade
      | Some Legacy, _ | _, Some Legacy -> Some Legacy
      | None, None -> None);
    static_only = a.static_only || b.static_only;
    stale_order = a.stale_order || b.stale_order;
  }

(* Rewrite a suite menu under a misconfiguration: static-only endpoints
   drop every forward-secret suite; a stale preference order serves the
   oldest suites first (DHE, then static, ECDHE last) without changing
   the supported set. *)
let misconfig_suites m suites =
  if suites = [] then []
  else if m.static_only then [ T.ECDH_ECDSA_AES128_SHA256 ]
  else if m.stale_order then
    let has s = List.mem s suites in
    List.filter has
      [ T.DHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256; T.ECDHE_ECDSA_AES128_SHA256 ]
  else suites

(* Base-profile misconfiguration rates, kept small enough that the
   Table 1 suite marginals stay inside the calibration tolerances:
   ~2.6% of sites serve an undersized DH group, ~0.6% are static-only,
   ~3% run a stale preference order. *)
let sample_misconfig rng =
  let weak_dh =
    Crypto.Rng.weighted rng
      [ (0.974, None); (0.008, Some Export_grade); (0.018, Some Legacy) ]
  in
  let static_only = Crypto.Rng.bool rng ~p:0.006 in
  let stale_order = Crypto.Rng.bool rng ~p:0.03 in
  { weak_dh; static_only; stale_order }

(* A regional downgrade for the cross-vantage worlds: what an
   inconsistent operator serves from its weaker regions, combined with
   the base misconfiguration by {!misconfig_combine}. *)
let sample_downgrade rng =
  Crypto.Rng.weighted rng
    [
      (0.40, { well_configured with weak_dh = Some Legacy });
      (0.15, { well_configured with weak_dh = Some Export_grade });
      (0.25, { well_configured with static_only = true });
      (0.20, { well_configured with stale_order = true });
    ]

let no_https =
  {
    https = false;
    trusted = false;
    suites = [];
    issue_ids = false;
    cache_lifetime = None;
    ticket = None;
    dhe_policy = Tls.Kex_cache.Fresh_always;
    ecdhe_policy = Tls.Kex_cache.Fresh_always;
    restart_mean = None;
    failure_rate = 0.;
    misconfig = well_configured;
  }

(* --- Conditional distributions for the long tail --------------------------- *)

(* Cipher-suite support. Table 1: of browser-trusted TLS domains, 89%
   complete ECDHE (390k/438k) and 59% offer DHE (252k/427k); Section 4.4:
   57% complete a DHE-only handshake. The remainder is static key
   exchange only. Weights below are the joint mix that realizes those
   marginals. *)
let sample_suites rng =
  Crypto.Rng.weighted rng
    [
      (* ECDHE preferred, DHE fallback, static fallback: the common
         full-support configuration. *)
      (0.58, [ T.ECDHE_ECDSA_AES128_SHA256; T.DHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256 ]);
      (* ECDHE + static, no DHE (DHE disabled after Logjam guidance). *)
      (0.27, [ T.ECDHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256 ]);
      (* DHE-only forward secrecy (no ECC support). *)
      (0.05, [ T.DHE_ECDSA_AES128_SHA256; T.ECDH_ECDSA_AES128_SHA256 ]);
      (* No forward secrecy at all. *)
      (0.10, [ T.ECDH_ECDSA_AES128_SHA256 ]);
    ]

(* Session-ID cache lifetimes. Figure 1: of domains that resume at all,
   61% expire within 5 minutes (the Apache/Nginx default), 82% within an
   hour; a visible step at 10 hours matches the Microsoft IIS default;
   0.8% resume for 24 hours or more. 97% of domains set an ID but only
   83/97 ever resume (Nginx issues IDs with resumption off). *)
let sample_session_id rng =
  let issue_ids = Crypto.Rng.bool rng ~p:0.97 in
  if not issue_ids then (false, None)
  else begin
    let resumes = Crypto.Rng.bool rng ~p:(0.83 /. 0.97) in
    if not resumes then (true, None)
    else
      (* Weights must sum to 1.0: [Rng.weighted] normalizes by the
         total, so a short table silently rescales every entry and the
         calibration comments stop matching the sampled marginals. *)
      let lifetime =
        Crypto.Rng.weighted rng
          [
            (0.10, 3 * Clock.minute);
            (0.53, 5 * Clock.minute) (* Apache / Nginx default *);
            (0.04, 10 * Clock.minute);
            (0.07, 30 * Clock.minute);
            (0.09, 1 * Clock.hour);
            (0.04, 4 * Clock.hour);
            (0.09, 10 * Clock.hour) (* IIS default *);
            (0.02, 18 * Clock.hour);
            (0.014, 24 * Clock.hour);
            (0.006, 48 * Clock.hour);
          ]
      in
      (true, Some lifetime)
  end

(* STEK policies for ticket-issuing tail sites. Figure 3 (fractions of
   all trusted domains; tickets issued by 77%): 41% rotate the issuing
   STEK daily, 22% hold one for 7+ days, 10% for 30+ days. Most tail
   sites run Apache/Nginx with a process-lifetime random STEK, so the
   restart cadence *is* the rotation schedule; a minority load a static
   key file and never rotate. *)
let sample_stek rng =
  Crypto.Rng.weighted rng
    [
      (* Modern deployments with real rotation. *)
      (0.28, `Rotate (Clock.day, 2 * Clock.hour));
      (0.05, `Rotate (12 * Clock.hour, 2 * Clock.hour));
      (* Process-lifetime STEKs; the paired value is the restart period. *)
      (0.20, `Per_process (1 * Clock.day));
      (0.13, `Per_process (3 * Clock.day));
      (0.18, `Per_process (10 * Clock.day));
      (0.06, `Per_process (45 * Clock.day));
      (* Static key file, synchronized across servers, never rotated. *)
      (0.10, `Static);
    ]

(* Ticket acceptance lifetimes. Figure 2: 67% under 5 minutes (the
   3-minute Apache/Nginx default), 76% within an hour; CloudFlare's 18h
   and Google's 28h arrive via the named operators, not this tail. The
   hint follows the accept time except for ~4% of issuers that leave it
   unspecified (hint 0), and a couple of outliers advertise 90 days. *)
let sample_ticket rng ~stek =
  let issues = Crypto.Rng.bool rng ~p:0.70 in
  if not issues then None
  else begin
    let accept =
      Crypto.Rng.weighted rng
        [
          (0.84, 3 * Clock.minute) (* Apache / Nginx default *);
          (0.04, 5 * Clock.minute);
          (0.02, 10 * Clock.minute);
          (0.02, 30 * Clock.minute);
          (0.04, 1 * Clock.hour);
          (0.015, 4 * Clock.hour);
          (0.015, 10 * Clock.hour);
          (0.01, 24 * Clock.hour);
        ]
    in
    let hint = if Crypto.Rng.bool rng ~p:0.04 then 0 else accept in
    let policy =
      match stek with
      | `Rotate (period, window) ->
          Tls.Stek_manager.Rotate_every { period; accept_window = max window accept }
      | `Per_process _ -> Tls.Stek_manager.Per_process
      | `Static -> Tls.Stek_manager.Static
    in
    Some { hint; accept; stek = policy; reissue = true }
  end

(* Ephemeral-value reuse. Table 1 and Section 4.4:
   - DHE: 7.2% of DHE-capable domains repeat a value within a
     10-connection burst; 2.3% hold one for a day or more, 2.0% for 7+
     days, 0.9% for 30+ days (fractions of DHE-completing domains).
   - ECDHE: 15.5% repeat within a burst; 4.2% a day or more, 3.7% 7+,
     1.7% 30+ days. OpenSSL pre-2016 reused within a process by default,
     so [Reuse_forever] spans are clipped by the restart cadence. *)
(* Each kex sampler also states how the site's restart cadence should look
   for long-reuse spans to survive: [`No_pref] for fresh/TTL policies,
   [`Mean m] for process-lifetime reuse on a server restarted every ~m
   seconds, [`Never] for set-and-forget servers. *)
let sample_dhe_policy rng =
  Crypto.Rng.weighted rng
    [
      (0.918, (Tls.Kex_cache.Fresh_always, `No_pref));
      (0.020, (Tls.Kex_cache.Reuse_for (1 * Clock.hour), `No_pref));
      (0.030, (Tls.Kex_cache.Reuse_for (12 * Clock.hour), `No_pref));
      (0.010, (Tls.Kex_cache.Reuse_forever, `Mean (2 * Clock.day)));
      (0.014, (Tls.Kex_cache.Reuse_forever, `Mean (14 * Clock.day)));
      (0.008, (Tls.Kex_cache.Reuse_forever, `Never));
    ]

let sample_ecdhe_policy rng =
  Crypto.Rng.weighted rng
    [
      (0.836, (Tls.Kex_cache.Fresh_always, `No_pref));
      (0.060, (Tls.Kex_cache.Reuse_for (30 * Clock.minute), `No_pref));
      (0.055, (Tls.Kex_cache.Reuse_for (6 * Clock.hour), `No_pref));
      (0.015, (Tls.Kex_cache.Reuse_forever, `Mean (2 * Clock.day)));
      (0.022, (Tls.Kex_cache.Reuse_forever, `Mean (20 * Clock.day)));
      (0.012, (Tls.Kex_cache.Reuse_forever, `Never));
    ]

(* Draw one independent long-tail site. The HTTPS / trust gates follow the
   Table 1 funnel: ~66% of stable Top Million domains support HTTPS and
   ~60% of those present a browser-trusted chain (~45% overall incl. the big operators). *)
let sample_tail rng =
  if not (Crypto.Rng.bool rng ~p:0.66) then no_https
  else begin
    let trusted = Crypto.Rng.bool rng ~p:0.58 in
    let suites = sample_suites rng in
    let issue_ids, cache_lifetime = sample_session_id rng in
    let stek = sample_stek rng in
    let ticket = sample_ticket rng ~stek in
    let dhe_policy, dhe_pref = sample_dhe_policy rng in
    let ecdhe_policy, ecdhe_pref = sample_ecdhe_policy rng in
    let misconfig = sample_misconfig rng in
    (* A site that keeps one process-lifetime ephemeral value for weeks is
       by definition a server that is not restarted; that preference
       dominates. Otherwise the restart cadence comes from the STEK story
       (process-lifetime STEKs rotate exactly as often as the process
       restarts); sites with no per-process state restart rarely. *)
    let kex_pref =
      match (dhe_pref, ecdhe_pref) with
      | `Never, _ | _, `Never -> `Never
      | `Mean a, `Mean b -> `Mean (max a b)
      | `Mean a, `No_pref | `No_pref, `Mean a -> `Mean a
      | `No_pref, `No_pref -> `No_pref
    in
    let restart_mean =
      match kex_pref with
      | `Never -> None
      | `Mean m -> Some m
      | `No_pref -> (
          match stek with `Per_process mean -> Some mean | `Rotate _ | `Static -> Some (90 * Clock.day))
    in
    {
      https = true;
      trusted;
      suites;
      issue_ids;
      cache_lifetime;
      ticket;
      dhe_policy;
      ecdhe_policy;
      restart_mean;
      failure_rate = 0.01;
      misconfig;
    }
  end
