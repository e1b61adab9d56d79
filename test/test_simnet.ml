(* Tests for the simulated Internet: population invariants, sampling
   weights, seeded case studies, operator state sharing, churn, and the
   connect path. One shared small world keeps the suite fast. *)

let world_config = { Simnet.World.default_config with Simnet.World.n_domains = 1600 }
let world = lazy (Simnet.World.create ~config:world_config ())

let mk_client ?(offer_ticket = true) ?(suites = Tls.Types.all_cipher_suites) () =
  let w = Lazy.force world in
  Tls.Client.create
    ~config:
      {
        Tls.Config.cl_env = Simnet.World.env w;
        offer_suites = suites;
        offer_ticket;
        root_store = Simnet.World.root_store w;
        check_certs = false;
        evaluate_trust = true;
        verify_ske = true;
      }
    ~rng:(Crypto.Rng.create ~seed:"simnet-test-client") ()

let connect ?offer hostname =
  let w = Lazy.force world in
  Simnet.World.connect w ~client:(mk_client ()) ~hostname
    ~offer:(Option.value offer ~default:Tls.Client.Fresh)

let expect_outcome hostname =
  match connect hostname with
  | Ok o when o.Tls.Engine.ok -> o
  | Ok o ->
      Alcotest.fail
        (Printf.sprintf "handshake with %s failed: %s" hostname
           (Option.value ~default:"?" o.Tls.Engine.error))
  | Error _ -> Alcotest.fail (Printf.sprintf "could not connect to %s" hostname)

(* --- Population ----------------------------------------------------------- *)

let test_population_shape () =
  let w = Lazy.force world in
  let ds = Simnet.World.domains w in
  Alcotest.(check int) "population size" world_config.Simnet.World.n_domains (Array.length ds);
  (* Ranks are unique, positive, and sorted. *)
  let seen = Hashtbl.create 2048 in
  Array.iter
    (fun d ->
      let r = Simnet.World.domain_rank d in
      Alcotest.(check bool) "rank positive" true (r >= 1);
      Alcotest.(check bool) "rank unique" false (Hashtbl.mem seen r);
      Hashtbl.replace seen r ())
    ds;
  let sorted = Array.for_all (fun _ -> true) ds in
  ignore sorted;
  let ranks = Array.map Simnet.World.domain_rank ds in
  let is_sorted = ref true in
  Array.iteri (fun i r -> if i > 0 && r < ranks.(i - 1) then is_sorted := false) ranks;
  Alcotest.(check bool) "sorted by rank" true !is_sorted;
  (* Ranks 1..1000 are fully sampled. *)
  let top1000 = Array.fold_left (fun acc d -> if Simnet.World.domain_rank d <= 1000 then acc + 1 else acc) 0 ds in
  Alcotest.(check int) "top 1000 dense" 1000 top1000

let test_weights () =
  let w = Lazy.force world in
  let ds = Simnet.World.domains w in
  let total = Array.fold_left (fun acc d -> acc +. Simnet.World.domain_weight d) 0.0 ds in
  Alcotest.(check bool) "weights sum to ~1M" true (abs_float (total -. 1_000_000.0) < 20_000.0);
  Array.iter
    (fun d ->
      if Simnet.World.domain_rank d <= 1000 then
        Alcotest.(check (float 0.001)) "top-1000 weight 1" 1.0 (Simnet.World.domain_weight d))
    ds

let test_https_trusted_fractions () =
  let w = Lazy.force world in
  let ds = Simnet.World.domains w in
  let wsum f = Array.fold_left (fun acc d -> if f d then acc +. Simnet.World.domain_weight d else acc) 0.0 ds in
  let total = wsum (fun _ -> true) in
  let https = wsum Simnet.World.domain_has_https /. total in
  let trusted = wsum Simnet.World.domain_trusted /. total in
  (* Table 1 funnel: ~68% HTTPS, ~45% browser-trusted. *)
  Alcotest.(check bool) "https share plausible" true (https > 0.60 && https < 0.80);
  Alcotest.(check bool) "trusted share plausible" true (trusted > 0.38 && trusted < 0.55)

let test_mx_fraction () =
  let w = Lazy.force world in
  let ds = Simnet.World.domains w in
  let wsum f = Array.fold_left (fun acc d -> if f d then acc +. Simnet.World.domain_weight d else acc) 0.0 ds in
  let frac = wsum Simnet.World.mx_points_to_google /. wsum (fun _ -> true) in
  Alcotest.(check bool) "google MX ~9%" true (frac > 0.05 && frac < 0.14)

(* --- Case studies ------------------------------------------------------------ *)

let test_notables_present () =
  let w = Lazy.force world in
  List.iter
    (fun (name, rank) ->
      match Simnet.World.find_domain w name with
      | None -> Alcotest.fail (name ^ " missing")
      | Some d ->
          Alcotest.(check int) (name ^ " rank") rank (Simnet.World.domain_rank d);
          Alcotest.(check bool) (name ^ " https") true (Simnet.World.domain_has_https d);
          Alcotest.(check bool) (name ^ " trusted") true (Simnet.World.domain_trusted d))
    [
      ("google.com", 1);
      ("youtube.com", 2);
      ("facebook.com", 3);
      ("yahoo.com", 5);
      ("netflix.com", 31);
      ("yandex.ru", 28);
      ("fantabobworld.com", 310_000);
    ]

let test_yandex_shared_stek () =
  let o1 = expect_outcome "yandex.ru" in
  let o2 = expect_outcome "yandex.com" in
  Alcotest.(check bool) "both issued tickets" true
    (o1.Tls.Engine.stek_key_name <> None && o2.Tls.Engine.stek_key_name <> None);
  Alcotest.(check bool) "same STEK across yandex domains" true
    (o1.Tls.Engine.stek_key_name = o2.Tls.Engine.stek_key_name)

let test_fantabob_hint () =
  let o = expect_outcome "fantabobworld.com" in
  match o.Tls.Engine.new_ticket with
  | Some (hint, _) -> Alcotest.(check int) "90-day hint" (90 * 86_400) hint
  | None -> Alcotest.fail "fantabobworld issued no ticket"

let test_whatsapp_no_dhe () =
  let w = Lazy.force world in
  let client = mk_client ~suites:[ Tls.Types.DHE_ECDSA_AES128_SHA256 ] ~offer_ticket:false () in
  match Simnet.World.connect w ~client ~hostname:"whatsapp.com" ~offer:Tls.Client.Fresh with
  | Ok o -> Alcotest.(check bool) "whatsapp refuses DHE" false o.Tls.Engine.ok
  | Error _ -> Alcotest.fail "connection error"

(* --- Operator behaviour -------------------------------------------------------- *)

let find_by_operator op =
  let w = Lazy.force world in
  Array.to_list (Simnet.World.domains w)
  |> List.filter (fun d -> String.equal (Simnet.World.domain_operator d) op)

let test_google_long_session_ids () =
  let o1 = expect_outcome "google.com" in
  let session = Option.get o1.Tls.Engine.session in
  (* Google honors session IDs for more than 24 hours (section 4.1). *)
  let w = Lazy.force world in
  Simnet.Clock.advance (Simnet.World.clock w) (25 * 3600);
  let o2 =
    match connect ~offer:(Tls.Client.Offer_session_id session) "google.com" with
    | Ok o -> o
    | Error _ -> Alcotest.fail "reconnect failed"
  in
  Alcotest.(check bool) "resumed after 25h" true (o2.Tls.Engine.resumed = `Via_session_id)

let test_cloudflare_group_shares_stek () =
  match find_by_operator "cloudflare" with
  | a :: b :: _ ->
      let oa = expect_outcome (Simnet.World.domain_name a) in
      let ob = expect_outcome (Simnet.World.domain_name b) in
      Alcotest.(check bool) "cloudflare customers share a STEK" true
        (oa.Tls.Engine.stek_key_name <> None
        && oa.Tls.Engine.stek_key_name = ob.Tls.Engine.stek_key_name)
  | _ -> Alcotest.fail "not enough cloudflare customers sampled"

let test_google_mail_shares_stek () =
  (* Section 7.2: Google's SMTP/IMAPS front-ends use the same STEK as
     the web properties. *)
  let w = Lazy.force world in
  let web = expect_outcome "google.com" in
  let mx =
    Array.to_list (Simnet.World.domains w)
    |> List.find_map (fun d ->
           if Simnet.World.mx_points_to_google d then Simnet.World.mx_host w d else None)
  in
  match mx with
  | None -> Alcotest.fail "no domain with google MX sampled"
  | Some host -> (
      match
        Simnet.World.connect_service_host w ~client:(mk_client ()) ~hostname:host
          ~offer:Tls.Client.Fresh
      with
      | Ok mail when mail.Tls.Engine.ok ->
          Alcotest.(check bool) "mail issues tickets" true (mail.Tls.Engine.stek_key_name <> None);
          Alcotest.(check bool) "same STEK as web" true
            (mail.Tls.Engine.stek_key_name = web.Tls.Engine.stek_key_name)
      | Ok _ | Error _ -> Alcotest.fail "mail host handshake failed")

let test_operator_sizes_ordered () =
  (* CloudFlare must dominate the sampled operator populations. *)
  let size op = List.length (find_by_operator op) in
  Alcotest.(check bool) "cloudflare > google" true (size "cloudflare" > size "google");
  Alcotest.(check bool) "google > fastly" true (size "google" >= size "fastly");
  Alcotest.(check bool) "jackhenry sampled" true (size "jackhenry" >= 1)

(* --- Churn / presence ------------------------------------------------------------ *)

let test_presence () =
  let w = Lazy.force world in
  let ds = Simnet.World.domains w in
  Array.iter
    (fun d ->
      if Simnet.World.domain_stable d then
        for day = 0 to 5 do
          Alcotest.(check bool) "stable domains always present" true
            (Simnet.World.in_list_on_day d ~day)
        done)
    ds;
  (* Determinism: the same (domain, day) always answers the same. *)
  let d = ds.(Array.length ds - 1) in
  for day = 0 to 20 do
    Alcotest.(check bool) "presence deterministic"
      (Simnet.World.in_list_on_day d ~day)
      (Simnet.World.in_list_on_day d ~day)
  done;
  (* Churn exists: some domain is absent on some day. *)
  let any_absent = ref false in
  Array.iter
    (fun d ->
      for day = 0 to 10 do
        if not (Simnet.World.in_list_on_day d ~day) then any_absent := true
      done)
    ds;
  Alcotest.(check bool) "churn exists" true !any_absent

(* --- Connect path ------------------------------------------------------------------ *)

let test_connect_errors () =
  let w = Lazy.force world in
  (match Simnet.World.connect w ~client:(mk_client ()) ~hostname:"no-such-domain.test" ~offer:Tls.Client.Fresh with
  | Error Simnet.World.No_such_domain -> ()
  | _ -> Alcotest.fail "expected No_such_domain");
  let no_https =
    Array.to_list (Simnet.World.domains w)
    |> List.find_opt (fun d -> not (Simnet.World.domain_has_https d))
  in
  match no_https with
  | None -> Alcotest.fail "world has no HTTP-only domain"
  | Some d -> (
      match
        Simnet.World.connect w ~client:(mk_client ()) ~hostname:(Simnet.World.domain_name d)
          ~offer:Tls.Client.Fresh
      with
      | Error Simnet.World.No_https -> ()
      | _ -> Alcotest.fail "expected No_https")

let test_asn_ip_indexes () =
  let w = Lazy.force world in
  let d =
    Array.to_list (Simnet.World.domains w)
    |> List.find (fun d -> Simnet.World.domain_has_https d)
  in
  let mates = Simnet.World.domains_in_asn w (Simnet.World.domain_asn d) in
  Alcotest.(check bool) "domain indexed under its ASN" true
    (List.exists (String.equal (Simnet.World.domain_name d)) mates);
  let ipmates = Simnet.World.domains_on_ip w (Simnet.World.domain_ip d) in
  Alcotest.(check bool) "domain indexed under its IP" true
    (List.exists (String.equal (Simnet.World.domain_name d)) ipmates)

let test_determinism () =
  (* Two worlds from the same seed agree on a sample of behaviour. *)
  let w2 = Simnet.World.create ~config:world_config () in
  let w1 = Lazy.force world in
  let names w = Array.map Simnet.World.domain_name (Simnet.World.domains w) in
  Alcotest.(check bool) "same domain list" true (names w1 = names w2)

(* --- Profiles ------------------------------------------------------------------------ *)

let test_profile_sampler () =
  let rng = Crypto.Rng.create ~seed:"profile-test" in
  let n = 3000 in
  let https = ref 0 and trusted = ref 0 and tickets = ref 0 and dhe_reuse = ref 0 in
  for _ = 1 to n do
    let p = Simnet.Profile.sample_tail rng in
    if p.Simnet.Profile.https then begin
      incr https;
      if p.Simnet.Profile.trusted then incr trusted;
      if p.Simnet.Profile.ticket <> None then incr tickets;
      if p.Simnet.Profile.dhe_policy <> Tls.Kex_cache.Fresh_always then incr dhe_reuse
    end
  done;
  let frac a b = float_of_int a /. float_of_int b in
  Alcotest.(check bool) "https ~66%" true (abs_float (frac !https n -. 0.66) < 0.04);
  Alcotest.(check bool) "trusted ~60% of https" true (abs_float (frac !trusted !https -. 0.60) < 0.05);
  Alcotest.(check bool) "tickets ~72% of https" true (abs_float (frac !tickets !https -. 0.72) < 0.05);
  Alcotest.(check bool) "dhe reuse ~7%" true (abs_float (frac !dhe_reuse !https -. 0.072) < 0.03)

(* --- Regions --------------------------------------------------------------------------- *)

(* A world is a pure function of (config, region): every region serves
   the identical population (names, ranks, weights, operators), and any
   non-default region differs from the default vantage only in the
   misconfigurations of regionally-inconsistent operators. *)
let region_base =
  { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "region-test" }

let population w =
  Array.map
    (fun d ->
      ( Simnet.World.domain_name d,
        Simnet.World.domain_rank d,
        Simnet.World.domain_weight d,
        Simnet.World.domain_operator d ))
    (Simnet.World.domains w)

let misconfigs w =
  Array.map (fun d -> Simnet.World.domain_misconfig d) (Simnet.World.domains w)

let test_region_overrides () =
  let wd = Simnet.World.create ~config:region_base () in
  let base_pop = population wd and base_mis = misconfigs wd in
  let overridden = ref 0 in
  List.iter
    (fun r ->
      let wr =
        Simnet.World.create ~config:{ region_base with Simnet.World.region = r } ()
      in
      Alcotest.(check bool)
        (r ^ " serves the same population")
        true
        (population wr = base_pop);
      let mis = misconfigs wr in
      if r = Simnet.Region.default_name then
        Alcotest.(check bool) "default region is the paper's world" true (mis = base_mis)
      else begin
        let differing = ref 0 in
        Array.iteri (fun i m -> if m <> base_mis.(i) then incr differing) mis;
        if !differing > 0 then incr overridden;
        (* Overrides are the calibrated minority, not a rewrite. *)
        Alcotest.(check bool)
          (r ^ " overrides stay a minority")
          true
          (float_of_int !differing < 0.3 *. float_of_int (Array.length mis))
      end)
    Simnet.Region.all;
  Alcotest.(check bool) "some region applies overrides" true (!overridden > 0)

let test_region_validation () =
  Alcotest.(check bool) "known regions valid" true
    (List.for_all Simnet.Region.is_valid Simnet.Region.all);
  Alcotest.(check bool) "unknown region invalid" false (Simnet.Region.is_valid "mars-base");
  match
    Simnet.World.create
      ~config:{ region_base with Simnet.World.region = "mars-base" }
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "world accepted an unknown region"

let prop_region_replica_identity =
  QCheck2.Test.make ~name:"multi-region replica identity" ~count:3
    QCheck2.Gen.(pair (oneofl Simnet.Region.all) (int_range 0 999))
    (fun (region, n) ->
      let cfg =
        {
          region_base with
          Simnet.World.seed = Printf.sprintf "region-prop-%d" n;
          region;
        }
      in
      let w1 = Simnet.World.create ~config:cfg () in
      let w2 = Simnet.World.create ~config:cfg () in
      population w1 = population w2 && misconfigs w1 = misconfigs w2)

let test_misconfig_taxonomy () =
  let open Simnet.Profile in
  Alcotest.(check int) "clean severity" 0 (misconfig_severity well_configured);
  Alcotest.(check string) "clean label" "clean" (misconfig_label well_configured);
  let export = { well_configured with weak_dh = Some Export_grade } in
  let legacy = { well_configured with weak_dh = Some Legacy } in
  let stale = { well_configured with stale_order = true } in
  Alcotest.(check bool) "export worse than legacy" true
    (misconfig_severity export > misconfig_severity legacy);
  let combined = misconfig_combine legacy { export with static_only = true } in
  Alcotest.(check bool) "combine keeps worst weak_dh" true
    (combined.weak_dh = Some Export_grade);
  Alcotest.(check bool) "combine ORs flags" true combined.static_only;
  Alcotest.(check string) "label joins parts" "export-dh+static-only"
    (misconfig_label combined);
  (* Menu shaping: static-only collapses to the static suite, stale
     orders only filter, and an empty menu (no HTTPS) stays empty. *)
  let all = Tls.Types.all_cipher_suites in
  Alcotest.(check bool) "static-only menu" true
    (misconfig_suites { well_configured with static_only = true } all
    = [ Tls.Types.ECDH_ECDSA_AES128_SHA256 ]);
  Alcotest.(check bool) "stale order filters, never invents" true
    (List.for_all (fun s -> List.mem s all) (misconfig_suites stale all));
  Alcotest.(check bool) "empty menu stays empty" true (misconfig_suites export [] = [])

(* --- Clock ----------------------------------------------------------------------------- *)

let test_clock () =
  let c = Simnet.Clock.create ~start:100 () in
  Alcotest.(check int) "start" 100 (Simnet.Clock.now c);
  Simnet.Clock.advance c 50;
  Alcotest.(check int) "advance" 150 (Simnet.Clock.now c);
  Simnet.Clock.set c 1000;
  Alcotest.(check int) "set" 1000 (Simnet.Clock.now c);
  Alcotest.check_raises "no time travel" (Invalid_argument "Clock.set: cannot go backwards")
    (fun () -> Simnet.Clock.set c 10);
  Alcotest.(check int) "day_of" 0 (Simnet.Clock.day_of c)

let () =
  Alcotest.run "simnet"
    [
      ( "population",
        [
          Alcotest.test_case "shape" `Quick test_population_shape;
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "https/trusted fractions" `Quick test_https_trusted_fractions;
          Alcotest.test_case "mx fraction" `Quick test_mx_fraction;
        ] );
      ( "case-studies",
        [
          Alcotest.test_case "notables present" `Quick test_notables_present;
          Alcotest.test_case "yandex shared stek" `Quick test_yandex_shared_stek;
          Alcotest.test_case "fantabob hint" `Quick test_fantabob_hint;
          Alcotest.test_case "whatsapp no dhe" `Quick test_whatsapp_no_dhe;
        ] );
      ( "operators",
        [
          Alcotest.test_case "google long session ids" `Quick test_google_long_session_ids;
          Alcotest.test_case "cloudflare shared stek" `Quick test_cloudflare_group_shares_stek;
          Alcotest.test_case "google mail shares stek" `Quick test_google_mail_shares_stek;
          Alcotest.test_case "operator sizes ordered" `Quick test_operator_sizes_ordered;
        ] );
      ( "churn",
        [ Alcotest.test_case "presence" `Quick test_presence ] );
      ( "connect",
        [
          Alcotest.test_case "errors" `Quick test_connect_errors;
          Alcotest.test_case "asn/ip indexes" `Quick test_asn_ip_indexes;
          Alcotest.test_case "determinism" `Slow test_determinism;
        ] );
      ( "profiles",
        [ Alcotest.test_case "tail sampler calibration" `Quick test_profile_sampler ] );
      ( "regions",
        [
          Alcotest.test_case "regional overrides" `Slow test_region_overrides;
          Alcotest.test_case "region validation" `Quick test_region_validation;
          Alcotest.test_case "misconfig taxonomy" `Quick test_misconfig_taxonomy;
          QCheck_alcotest.to_alcotest prop_region_replica_identity;
        ] );
      ("clock", [ Alcotest.test_case "basics" `Quick test_clock ]);
    ]
