(* Integration tests for the core library: a miniature end-to-end study
   (every experiment runs and reports), the stolen-secret attack
   demonstrations with their negative control, the mitigation ablations,
   and the Section 7.2 target analysis. *)

open Helpers

let study =
  lazy
    (let config =
       {
         Tlsharm.Study.default_config with
         Tlsharm.Study.world_config =
           { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "core-test" };
         campaign_days = 8;
         verbose = false;
       }
     in
     let s = Tlsharm.Study.create ~config () in
     Tlsharm.Study.run_all s;
     s)

(* --- Experiments produce sane reports ------------------------------------------ *)

let test_all_experiments_report () =
  let s = Lazy.force study in
  List.iter
    (fun (id, f) ->
      let text = f s in
      Alcotest.(check bool) (id ^ " non-empty") true (String.length text > 100);
      Alcotest.(check bool)
        (id ^ " mentions measured data or paper")
        true
        (let lower = String.lowercase_ascii text in
         contains lower "paper" || contains lower "cdf"))
    Tlsharm.Experiments.by_name

(* Some line of [text] holds both needles. *)
let on_one_line text a b =
  List.exists (fun line -> contains line a && contains line b) (String.split_on_char '\n' text)

(* Every printed headline table is a rendering of Paper's targets: each
   target names a real experiment once, and that experiment's text shows
   its metric beside its paper value. *)
let test_tables_render_paper () =
  let s = Lazy.force study in
  let module P = Tlsharm.Paper in
  List.iter
    (fun (t : P.target) ->
      Alcotest.(check bool)
        (t.P.experiment ^ " is an experiment id")
        true
        (List.mem_assoc t.P.experiment Tlsharm.Experiments.by_name))
    P.targets;
  let keys = List.map (fun (t : P.target) -> (t.P.experiment, t.P.metric)) P.targets in
  Alcotest.(check int) "(experiment, metric) pairs unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (id, render) ->
      match P.of_experiment id with
      | [] -> ()
      | targets ->
          let text = render s in
          List.iter
            (fun (t : P.target) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s prints %S beside %s" id t.P.metric
                   (Analysis.Report.fmt_pct t.P.paper))
                true
                (on_one_line text t.P.metric (Analysis.Report.fmt_pct t.P.paper)))
            targets)
    Tlsharm.Experiments.by_name

(* [tlsharm analyze] renders Figures 3 and 5's targets on the archive,
   each beside Paper's value. *)
let test_analyze_quotes_paper () =
  let s = Lazy.force study in
  let module P = Tlsharm.Paper in
  let text = Tlsharm.Experiments.lifetime_report (Tlsharm.Study.campaign s) in
  List.iter
    (fun (t : P.target) ->
      let paper = ", paper " ^ Analysis.Report.fmt_pct t.P.paper in
      Alcotest.(check bool)
        (Printf.sprintf "analyze quotes %s %s%s" t.P.experiment t.P.metric paper)
        true
        (on_one_line text (Printf.sprintf " %s %s: " t.P.experiment t.P.metric) paper))
    (P.of_experiment "f3" @ P.of_experiment "f5")

let test_table1_shape () =
  let s = Lazy.force study in
  let r_dhe, r_ecdhe, r_ticket = Tlsharm.Study.table1_bursts s in
  Alcotest.(check int) "dhe results" 1500 (List.length r_dhe);
  Alcotest.(check int) "ecdhe results" 1500 (List.length r_ecdhe);
  Alcotest.(check int) "ticket results" 1500 (List.length r_ticket)

let test_study_invariants () =
  let s = Lazy.force study in
  (* STEK spans: bounded by the campaign length. *)
  let spans = Tlsharm.Study.stek_spans s in
  List.iter
    (fun (x : Analysis.Lifetime.domain_spans) ->
      Alcotest.(check bool) "span bounded" true
        (x.Analysis.Lifetime.max_span_days >= 0 && x.Analysis.Lifetime.max_span_days <= 8))
    spans;
  (* yahoo.com: static STEK, full-campaign span. *)
  (match
     List.find_opt
       (fun (x : Analysis.Lifetime.domain_spans) ->
         String.equal x.Analysis.Lifetime.domain "yahoo.com")
       spans
   with
  | Some x -> Alcotest.(check int) "yahoo full span" 8 x.Analysis.Lifetime.max_span_days
  | None -> Alcotest.fail "yahoo.com missing from spans");
  (* google.com: rotates within a day. *)
  match
    List.find_opt
      (fun (x : Analysis.Lifetime.domain_spans) ->
        String.equal x.Analysis.Lifetime.domain "google.com")
      spans
  with
  | Some x -> Alcotest.(check bool) "google rotates" true (x.Analysis.Lifetime.max_span_days <= 2)
  | None -> Alcotest.fail "google.com missing from spans"

let test_vuln_windows () =
  let s = Lazy.force study in
  let windows = Tlsharm.Study.vulnerability_windows s in
  Alcotest.(check bool) "non-empty" true (windows <> []);
  let summary = Analysis.Vuln_window.summarize windows in
  Alcotest.(check bool) "population positive" true (summary.Analysis.Vuln_window.population > 0.0);
  (* Monotone thresholds. *)
  Alcotest.(check bool) "monotone" true
    (summary.Analysis.Vuln_window.over_24h >= summary.Analysis.Vuln_window.over_7d
    && summary.Analysis.Vuln_window.over_7d >= summary.Analysis.Vuln_window.over_30d);
  (* yahoo (static STEK) must exceed the campaign-long window. *)
  match
    List.find_opt (fun w -> String.equal w.Analysis.Vuln_window.domain "yahoo.com") windows
  with
  | Some w ->
      Alcotest.(check bool) "yahoo window ~campaign length" true
        (w.Analysis.Vuln_window.seconds >= 7 * 86_400)
  | None -> Alcotest.fail "yahoo.com missing from windows"

let test_service_groups () =
  let s = Lazy.force study in
  let stek_groups = Tlsharm.Study.stek_service_groups s in
  Alcotest.(check bool) "stek groups exist" true (stek_groups <> []);
  let largest = List.hd stek_groups in
  Alcotest.(check string) "cloudflare is the largest STEK group" "cloudflare"
    largest.Analysis.Service_groups.label;
  let cache_groups = Tlsharm.Study.session_cache_groups s in
  let summary = Analysis.Service_groups.summarize cache_groups in
  Alcotest.(check bool) "most cache groups are singletons" true
    (float_of_int summary.Analysis.Service_groups.n_singletons
     /. float_of_int summary.Analysis.Service_groups.n_groups
    > 0.5)

let test_mitigations_monotone () =
  let s = Lazy.force study in
  let components = Tlsharm.Study.vulnerability_components s in
  let share mitigate =
    let windows = Analysis.Vuln_window.windows_of_components ~mitigate components in
    let summary = Analysis.Vuln_window.summarize windows in
    summary.Analysis.Vuln_window.over_24h /. summary.Analysis.Vuln_window.population
  in
  let baseline = share (fun c -> c) in
  let scenario name =
    (List.find (fun (x : Tlsharm.Mitigations.scenario) -> x.Tlsharm.Mitigations.name = name)
       Tlsharm.Mitigations.scenarios)
      .Tlsharm.Mitigations.mitigate
  in
  Alcotest.(check bool) "rotation helps" true (share (scenario "rotate STEKs daily") <= baseline);
  Alcotest.(check bool) "all three helps more" true
    (share (scenario "all three") <= share (scenario "rotate STEKs daily"));
  Alcotest.(check (float 1e-9)) "no shortcuts = no exposure" 0.0
    (share (scenario "shortcuts disabled"));
  Alcotest.(check bool) "report renders" true
    (String.length (Tlsharm.Mitigations.report s) > 200)

let test_target_analysis () =
  let s = Lazy.force study in
  let a = Tlsharm.Target_analysis.analyze s ~operator:"google" ~flagship:"google.com" in
  (* Google rotates every 14 hours; over 48h the probe sees 4-5 keys. *)
  Alcotest.(check bool) "several STEKs observed" true
    (List.length a.Tlsharm.Target_analysis.rollover.Tlsharm.Target_analysis.observed_keys >= 3);
  (match a.Tlsharm.Target_analysis.rollover.Tlsharm.Target_analysis.rollover_seconds with
  | Some s -> Alcotest.(check bool) "rollover ~14h" true (s >= 10 * 3600 && s <= 18 * 3600)
  | None -> Alcotest.fail "no rollover measured");
  Alcotest.(check bool) "blast radius positive" true (a.Tlsharm.Target_analysis.stek_group_weight > 0.0);
  Alcotest.(check bool) "mx coverage ~9%" true
    (a.Tlsharm.Target_analysis.mx_coverage_fraction > 0.04
    && a.Tlsharm.Target_analysis.mx_coverage_fraction < 0.15);
  Alcotest.(check bool) "mail shares the web STEK" true
    (a.Tlsharm.Target_analysis.mail_shares_stek = Some true);
  Alcotest.(check bool) "report renders" true
    (String.length (Tlsharm.Target_analysis.report a) > 100)

(* --- Posture grading ---------------------------------------------------------------- *)

let test_posture_grades () =
  (* A private world: posture probes advance the clock by days. *)
  let world =
    Simnet.World.create
      ~config:{ Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "posture-test" }
      ()
  in
  let assess d = Tlsharm.Posture.assess world ~domain:d in
  (* yahoo.com: static STEK -> D. *)
  let yahoo = assess "yahoo.com" in
  Alcotest.(check string) "yahoo grade" "D" (Tlsharm.Posture.grade_to_string yahoo.Tlsharm.Posture.grade);
  Alcotest.(check bool) "yahoo static stek flagged" true yahoo.Tlsharm.Posture.stek_static_over_horizon;
  (* netflix.com: reused ephemerals -> D with the kex note. *)
  let netflix = assess "netflix.com" in
  Alcotest.(check bool) "netflix kex reuse flagged" true netflix.Tlsharm.Posture.kex_reused;
  Alcotest.(check string) "netflix grade" "D"
    (Tlsharm.Posture.grade_to_string netflix.Tlsharm.Posture.grade);
  (* google.com: rotating STEK but >24h resumption -> C. *)
  let google = assess "google.com" in
  Alcotest.(check bool) "google rotates" true
    (google.Tlsharm.Posture.distinct_steks_over_horizon >= 2);
  Alcotest.(check string) "google grade" "C"
    (Tlsharm.Posture.grade_to_string google.Tlsharm.Posture.grade);
  (* A domain with no HTTPS -> F. *)
  let plain =
    Array.to_list (Simnet.World.domains world)
    |> List.find (fun d -> not (Simnet.World.domain_has_https d))
  in
  let off = assess (Simnet.World.domain_name plain) in
  Alcotest.(check string) "no-https grade" "F" (Tlsharm.Posture.grade_to_string off.Tlsharm.Posture.grade);
  (* Reports render. *)
  Alcotest.(check bool) "report renders" true
    (String.length (Tlsharm.Posture.report yahoo) > 50)

(* --- Attacks --------------------------------------------------------------------- *)

let attack_env = Tls.Config.sim_env ()

let attack_fixture ~shortcuts =
  let rng = Crypto.Rng.create ~seed:"attack-fixture" in
  let ca =
    Tls.Cert.self_signed ~curve:attack_env.Tls.Config.pki_curve ~name:"Attack CA" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair attack_env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:attack_env.Tls.Config.pki_curve ~subject:"victim.example"
      ~not_before:0 ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes attack_env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let server =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env = attack_env;
          suites = [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ];
          issue_session_ids = shortcuts;
          session_cache =
            (if shortcuts then Some (Tls.Session_cache.create ~lifetime:36_000 ~capacity:100)
             else None);
          tickets =
            (if shortcuts then
               Some
                 {
                   Tls.Config.stek_manager =
                     Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"atk" ~now:0;
                   lifetime_hint = 36_000;
                   accept_lifetime = 36_000;
                   reissue_on_resumption = true;
                 }
             else None);
          kex_cache =
            Tls.Kex_cache.uniform
              ~policy:
                (if shortcuts then Tls.Kex_cache.Reuse_forever else Tls.Kex_cache.Fresh_always);
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"attack-server")
  in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = attack_env;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"attack-client") ()
  in
  (client, server)

let test_attacks_succeed_with_shortcuts () =
  let client, server = attack_fixture ~shortcuts:true in
  let secret = "the secret payload nobody should read" in
  match
    Tlsharm.Attack.victim_connection ~plaintext:secret client server ~now:100
      ~hostname:"victim.example" ~offer:Tls.Client.Fresh
  with
  | Error e -> Alcotest.fail e
  | Ok recording ->
      List.iter
        (fun (name, result) ->
          match result with
          | Ok plain -> Alcotest.(check string) name secret plain
          | Error e -> Alcotest.fail (name ^ ": " ^ e))
        (Tlsharm.Attack.attempt_all recording ~server ~env:attack_env ~now:200)

let test_attacks_fail_without_shortcuts () =
  let client, server = attack_fixture ~shortcuts:false in
  match
    Tlsharm.Attack.victim_connection client server ~now:100 ~hostname:"victim.example"
      ~offer:Tls.Client.Fresh
  with
  | Error e -> Alcotest.fail e
  | Ok recording ->
      List.iter
        (fun (name, result) ->
          match result with
          | Ok _ -> Alcotest.fail (name ^ " decrypted against a hardened server")
          | Error _ -> ())
        (Tlsharm.Attack.attempt_all recording ~server ~env:attack_env ~now:200)

let test_attack_dhe_variant () =
  (* Same theft against a DHE-only reusing server. *)
  let rng = Crypto.Rng.create ~seed:"dhe-attack" in
  let ca =
    Tls.Cert.self_signed ~curve:attack_env.Tls.Config.pki_curve ~name:"CA2" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair attack_env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:attack_env.Tls.Config.pki_curve ~subject:"dhe.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes attack_env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let server =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env = attack_env;
          suites = [ Tls.Types.DHE_ECDSA_AES128_SHA256 ];
          issue_session_ids = false;
          session_cache = None;
          tickets = None;
          kex_cache = Tls.Kex_cache.create ~dhe:Tls.Kex_cache.Reuse_forever ();
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"dhe-attack-server")
  in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = attack_env;
          offer_suites = [ Tls.Types.DHE_ECDSA_AES128_SHA256 ];
          offer_ticket = false;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"dhe-attack-client") ()
  in
  match
    Tlsharm.Attack.victim_connection ~plaintext:"dhe secret" client server ~now:100
      ~hostname:"dhe.example" ~offer:Tls.Client.Fresh
  with
  | Error e -> Alcotest.fail e
  | Ok recording -> (
      match Tlsharm.Attack.steal_kex_value_and_decrypt recording ~server ~env:attack_env with
      | Ok plain -> Alcotest.(check string) "dhe theft decrypts" "dhe secret" plain
      | Error e -> Alcotest.fail e)

let test_attack_x25519_variant () =
  (* Theft of the cached X25519 share: an X25519-preferring client makes
     the reusing server negotiate group 29, and the attack must resolve
     the 32-byte ClientKeyExchange against the cached X25519 private
     value (regression: the cache had no accessor for it, so this theft
     was invisible to the demos). *)
  let rng = Crypto.Rng.create ~seed:"x25519-attack" in
  let ca =
    Tls.Cert.self_signed ~curve:attack_env.Tls.Config.pki_curve ~name:"CA3" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair attack_env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:attack_env.Tls.Config.pki_curve ~subject:"x.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes attack_env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let server =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env = attack_env;
          suites = [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ];
          issue_session_ids = false;
          session_cache = None;
          tickets = None;
          kex_cache = Tls.Kex_cache.create ~ecdhe:Tls.Kex_cache.Reuse_forever ();
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"x25519-attack-server")
  in
  let client =
    Tls.Client.create ~prefer_x25519:true
      ~config:
        {
          Tls.Config.cl_env = attack_env;
          offer_suites = [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ];
          offer_ticket = false;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"x25519-attack-client") ()
  in
  match
    Tlsharm.Attack.victim_connection ~plaintext:"x25519 secret" client server ~now:100
      ~hostname:"x.example" ~offer:Tls.Client.Fresh
  with
  | Error e -> Alcotest.fail e
  | Ok recording -> (
      (* The handshake really used X25519: the captured CKE is a raw
         32-byte u-coordinate, not an uncompressed NIST point. *)
      (match recording.Tlsharm.Attack.capture.Tlsharm.Attack.client_kex_public with
      | Some pub ->
          Alcotest.(check int) "32-byte x25519 share" Crypto.X25519.key_len (String.length pub)
      | None -> Alcotest.fail "no ClientKeyExchange captured");
      Alcotest.(check bool)
        "cached x25519 value visible to the attacker" true
        (Tls.Kex_cache.current_x25519 (Tls.Server.config server).Tls.Config.kex_cache <> None);
      match Tlsharm.Attack.steal_kex_value_and_decrypt recording ~server ~env:attack_env with
      | Ok plain -> Alcotest.(check string) "x25519 theft decrypts" "x25519 secret" plain
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "core"
    [
      ( "study",
        [
          Alcotest.test_case "all experiments report" `Slow test_all_experiments_report;
          Alcotest.test_case "tables render paper targets" `Slow test_tables_render_paper;
          Alcotest.test_case "analyze quotes paper" `Slow test_analyze_quotes_paper;
          Alcotest.test_case "table1 shape" `Slow test_table1_shape;
          Alcotest.test_case "span invariants" `Slow test_study_invariants;
          Alcotest.test_case "vulnerability windows" `Slow test_vuln_windows;
          Alcotest.test_case "service groups" `Slow test_service_groups;
          Alcotest.test_case "mitigations monotone" `Slow test_mitigations_monotone;
          Alcotest.test_case "target analysis" `Slow test_target_analysis;
        ] );
      ( "posture",
        [ Alcotest.test_case "grades" `Slow test_posture_grades ] );
      ( "attacks",
        [
          Alcotest.test_case "succeed with shortcuts" `Quick test_attacks_succeed_with_shortcuts;
          Alcotest.test_case "fail without shortcuts" `Quick test_attacks_fail_without_shortcuts;
          Alcotest.test_case "dhe variant" `Quick test_attack_dhe_variant;
          Alcotest.test_case "x25519 variant" `Quick test_attack_x25519_variant;
        ] );
    ]
