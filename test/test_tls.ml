(* Tests for the TLS engine: handshake round-trips (full, session-ID
   resumption, ticket resumption), expiry and rotation behaviour, wire
   codecs, certificate validation, the record layer, and the
   stolen-secret attacks the paper is about. *)

module T = Tls.Types
module Msg = Tls.Handshake_msg

let env = Tls.Config.sim_env ()
let rng () = Crypto.Rng.create ~seed:"test-tls"

(* --- A tiny PKI ------------------------------------------------------------- *)

let day = 86_400

let ca =
  Tls.Cert.self_signed ~curve:env.Tls.Config.pki_curve ~name:"Test Root CA" ~not_before:0
    ~not_after:(3650 * day) ~serial:1
    (Crypto.Rng.create ~seed:"test-ca")

let issue_leaf ?(hostname = "example.com") ?(sans = []) ?(not_before = 0)
    ?(not_after = 3650 * day) ?(serial = 42) () =
  let r = Crypto.Rng.create ~seed:("leaf-" ^ hostname) in
  let keypair = Crypto.Ecdsa.gen_keypair env.Tls.Config.pki_curve r in
  let pub = Crypto.Ec.point_bytes env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key keypair) in
  let cert =
    Tls.Cert.issue ca ~curve:env.Tls.Config.pki_curve ~subject:hostname ~sans ~not_before
      ~not_after ~serial ~pub r
  in
  (cert, keypair)

let root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ]

(* --- Server / client builders ------------------------------------------------ *)

type server_opts = {
  suites : T.cipher_suite list;
  cache_lifetime : int option; (* None = no ID resumption *)
  issue_ids : bool;
  tickets : Tls.Config.ticket_config option;
  kex_policy : Tls.Kex_cache.policy;
}

let default_ticket_config ?(lifetime_hint = 300) ?(accept_lifetime = 300)
    ?(policy = Tls.Stek_manager.Per_process) ?(reissue = true) ?(secret = "stek-secret") ~now () =
  {
    Tls.Config.stek_manager = Tls.Stek_manager.create ~policy ~secret ~now;
    lifetime_hint;
    accept_lifetime;
    reissue_on_resumption = reissue;
  }

let default_opts ~now =
  {
    suites = T.all_cipher_suites;
    cache_lifetime = Some 300;
    issue_ids = true;
    tickets = Some (default_ticket_config ~now ());
    kex_policy = Tls.Kex_cache.Fresh_always;
  }

let make_server ?(hostname = "example.com") ~now:_ opts =
  let cert, key = issue_leaf ~hostname () in
  let config =
    {
      Tls.Config.env;
      suites = opts.suites;
      issue_session_ids = opts.issue_ids;
      session_cache =
        Option.map (fun lt -> Tls.Session_cache.create ~lifetime:lt ~capacity:1000) opts.cache_lifetime;
      tickets = opts.tickets;
      kex_cache = Tls.Kex_cache.uniform ~policy:opts.kex_policy;
      cert_chain = [ cert ];
      cert_key = key;
    }
  in
  Tls.Server.create ~config ~rng:(Crypto.Rng.create ~seed:("server-" ^ hostname))

let make_client ?(offer_ticket = true) ?(suites = T.all_cipher_suites) ?(check = false) () =
  Tls.Client.create
    ~config:
      {
        Tls.Config.cl_env = env;
        offer_suites = suites;
        offer_ticket;
        root_store;
        check_certs = check;
        evaluate_trust = true;
        verify_ske = true;
      }
    ~rng:(rng ()) ()

let connect ?(hostname = "example.com") ?(offer = Tls.Client.Fresh) client server ~now =
  Tls.Engine.connect client server ~now ~hostname ~offer

let expect_ok what (o : Tls.Engine.outcome) =
  if not o.Tls.Engine.ok then
    Alcotest.fail
      (Printf.sprintf "%s failed: %s" what
         (match (o.Tls.Engine.error, o.Tls.Engine.alert) with
         | Some e, _ -> e
         | None, Some a -> Format.asprintf "%a" T.pp_alert a
         | None, None -> "unknown"))

(* --- Full handshake ----------------------------------------------------------- *)

let test_full_handshake () =
  let now = 1000 in
  let server = make_server ~now (default_opts ~now) in
  let client = make_client () in
  let o = connect client server ~now in
  expect_ok "full handshake" o;
  Alcotest.(check bool) "not resumed" true (o.Tls.Engine.resumed = `No);
  Alcotest.(check bool) "trusted chain" true o.Tls.Engine.trusted;
  Alcotest.(check int) "session id issued" 32 (String.length o.Tls.Engine.session_id);
  Alcotest.(check bool) "ticket issued" true (o.Tls.Engine.new_ticket <> None);
  Alcotest.(check bool) "stek key name visible" true (o.Tls.Engine.stek_key_name <> None);
  Alcotest.(check bool) "kex value recorded" true (o.Tls.Engine.server_kex_public <> None);
  match o.Tls.Engine.session with
  | None -> Alcotest.fail "no session"
  | Some s -> Alcotest.(check int) "established time" now (Tls.Session.established_at s)

let test_each_suite () =
  List.iter
    (fun suite ->
      let now = 1000 in
      let server = make_server ~now { (default_opts ~now) with suites = [ suite ] } in
      let client = make_client () in
      let o = connect client server ~now in
      expect_ok (Format.asprintf "handshake with %a" T.pp_cipher_suite suite) o;
      Alcotest.(check bool) "negotiated requested suite" true
        (o.Tls.Engine.cipher = Some suite);
      (* Static ECDH sends no ServerKeyExchange. *)
      Alcotest.(check bool) "kex value presence matches suite"
        (T.suite_forward_secret suite)
        (o.Tls.Engine.server_kex_public <> None))
    T.all_cipher_suites

let test_no_common_suite () =
  let now = 1000 in
  let server = make_server ~now { (default_opts ~now) with suites = [ T.DHE_ECDSA_AES128_SHA256 ] } in
  let client = make_client ~suites:[ T.ECDHE_ECDSA_AES128_SHA256 ] () in
  let o = connect client server ~now in
  Alcotest.(check bool) "handshake fails" false o.Tls.Engine.ok;
  Alcotest.(check bool) "handshake_failure alert" true
    (o.Tls.Engine.alert = Some T.Handshake_failure)

(* --- Session-ID resumption ------------------------------------------------------ *)

let test_session_id_resumption () =
  let now = 1000 in
  let server = make_server ~now { (default_opts ~now) with tickets = None } in
  let client = make_client ~offer_ticket:false () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let session = Option.get o1.Tls.Engine.session in
  let o2 =
    connect client server ~now:(now + 60) ~offer:(Tls.Client.Offer_session_id session)
  in
  expect_ok "resumption" o2;
  Alcotest.(check bool) "resumed via ID" true (o2.Tls.Engine.resumed = `Via_session_id);
  Alcotest.(check string) "same session id" (Tls.Session.id session) o2.Tls.Engine.session_id;
  (* Master secret is carried over: same session state on both sides. *)
  Alcotest.(check bool) "same master secret" true
    (Tls.Session.equal session (Option.get o2.Tls.Engine.session))

let test_session_id_expiry () =
  let now = 1000 in
  let server = make_server ~now { (default_opts ~now) with cache_lifetime = Some 300; tickets = None } in
  let client = make_client ~offer_ticket:false () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let session = Option.get o1.Tls.Engine.session in
  (* Within lifetime: resumes. *)
  let o2 = connect client server ~now:(now + 299) ~offer:(Tls.Client.Offer_session_id session) in
  Alcotest.(check bool) "resumes before expiry" true (o2.Tls.Engine.resumed = `Via_session_id);
  (* After expiry: full handshake with a fresh ID. *)
  let o3 = connect client server ~now:(now + 301) ~offer:(Tls.Client.Offer_session_id session) in
  expect_ok "post-expiry" o3;
  Alcotest.(check bool) "full handshake after expiry" true (o3.Tls.Engine.resumed = `No);
  Alcotest.(check bool) "fresh id" false
    (String.equal o3.Tls.Engine.session_id (Tls.Session.id session))

let test_no_cache_never_resumes () =
  let now = 1000 in
  let server =
    make_server ~now { (default_opts ~now) with cache_lifetime = None; tickets = None }
  in
  let client = make_client ~offer_ticket:false () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  (* Server issues an ID (nginx-style) but will not resume it. *)
  Alcotest.(check int) "id issued anyway" 32 (String.length o1.Tls.Engine.session_id);
  let session = Option.get o1.Tls.Engine.session in
  let o2 = connect client server ~now:(now + 1) ~offer:(Tls.Client.Offer_session_id session) in
  expect_ok "second" o2;
  Alcotest.(check bool) "not resumed" true (o2.Tls.Engine.resumed = `No)

let test_shared_session_cache () =
  (* Two domains behind one terminator share a cache: a session from a
     resumes on b — the Section 5.1 cross-domain measurement. *)
  let now = 1000 in
  let shared_cache = Tls.Session_cache.create ~lifetime:3600 ~capacity:1000 in
  let mk hostname =
    let cert, key = issue_leaf ~hostname () in
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites = T.all_cipher_suites;
          issue_session_ids = true;
          session_cache = Some shared_cache;
          tickets = None;
          kex_cache = Tls.Kex_cache.uniform ~policy:Tls.Kex_cache.Fresh_always;
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:("shared-" ^ hostname))
  in
  let server_a = mk "a.example" and server_b = mk "b.example" in
  let client = make_client ~offer_ticket:false () in
  let o1 = connect ~hostname:"a.example" client server_a ~now in
  expect_ok "initial on a" o1;
  let session = Option.get o1.Tls.Engine.session in
  let o2 =
    connect ~hostname:"b.example" client server_b ~now:(now + 10)
      ~offer:(Tls.Client.Offer_session_id session)
  in
  expect_ok "cross-domain resumption" o2;
  Alcotest.(check bool) "b resumed a's session" true (o2.Tls.Engine.resumed = `Via_session_id)

let test_cache_capacity_eviction () =
  let cache = Tls.Session_cache.create ~lifetime:3600 ~capacity:2 in
  let mk i =
    Tls.Session.make
      ~id:(Printf.sprintf "%32d" i)
      ~master_secret:(String.make 48 (Char.chr (65 + i)))
      ~cipher_suite:T.ECDHE_ECDSA_AES128_SHA256 ~established_at:0
  in
  let s1 = mk 1 and s2 = mk 2 and s3 = mk 3 in
  Tls.Session_cache.store cache ~now:0 s1;
  Tls.Session_cache.store cache ~now:0 s2;
  Tls.Session_cache.store cache ~now:0 s3;
  Alcotest.(check int) "bounded size" 2 (Tls.Session_cache.size cache);
  Alcotest.(check bool) "oldest evicted" true
    (Tls.Session_cache.lookup cache ~now:1 (Tls.Session.id s1) = None);
  Alcotest.(check bool) "newest kept" true
    (Tls.Session_cache.lookup cache ~now:1 (Tls.Session.id s3) <> None)

let test_cache_drops_expired () =
  (* A cache holds only live sessions: [store] drops the expired oldest
     entries, so a long-lived cache under churn keeps no dead state even
     though its capacity never binds. *)
  let cache = Tls.Session_cache.create ~lifetime:10 ~capacity:16 in
  let mk i =
    Tls.Session.make
      ~id:(Printf.sprintf "%32d" i)
      ~master_secret:(String.make 48 'x') ~cipher_suite:T.ECDHE_ECDSA_AES128_SHA256
      ~established_at:0
  in
  Tls.Session_cache.store cache ~now:0 (mk 0);
  Tls.Session_cache.store cache ~now:20 (mk 1);
  Alcotest.(check int) "expired head dropped" 1 (Tls.Session_cache.size cache);
  Alcotest.(check bool) "live session kept" true
    (Tls.Session_cache.lookup cache ~now:25 (Tls.Session.id (mk 1)) <> None);
  Alcotest.(check bool) "expired lookup misses" true
    (Tls.Session_cache.lookup cache ~now:31 (Tls.Session.id (mk 1)) = None);
  for i = 2 to 999 do
    Tls.Session_cache.store cache ~now:(i * 100) (mk i)
  done;
  Alcotest.(check int) "one live session under churn" 1 (Tls.Session_cache.size cache)

let test_scheduled_stek_created_at () =
  (* Regression: a [Scheduled] manager used to stamp the issuing STEK
     with the query time instead of the start of its schedule interval,
     so the same key appeared "fresh" on every connection. *)
  let m =
    Tls.Stek_manager.create
      ~policy:(Tls.Stek_manager.Scheduled [ 100; 200 ])
      ~secret:"sched-secret" ~now:0
  in
  let check ~now ~expect_created =
    let stek = Tls.Stek_manager.issuing m ~now in
    Alcotest.(check int)
      (Printf.sprintf "created_at at now=%d" now)
      expect_created (Tls.Stek.created_at stek)
  in
  check ~now:50 ~expect_created:0;
  check ~now:150 ~expect_created:100;
  check ~now:250 ~expect_created:200;
  (* Same interval, later query: key material and stamp both stable. *)
  let a = Tls.Stek_manager.issuing m ~now:150 in
  let b = Tls.Stek_manager.issuing m ~now:199 in
  Alcotest.(check string) "same key in one interval" (Tls.Stek.key_name a) (Tls.Stek.key_name b);
  Alcotest.(check int) "same stamp in one interval" (Tls.Stek.created_at a)
    (Tls.Stek.created_at b)

let test_stek_created_at_issue_decrypt_agree () =
  (* Regression: under every policy, resolving a key for decryption must
     return the same [created_at] the issuing path stamped — the decrypt
     path used to re-derive with the query time, so exposure windows
     measured from whenever a ticket happened to come back. *)
  List.iter
    (fun (label, policy) ->
      let m = Tls.Stek_manager.create ~policy ~secret:("agree-" ^ label) ~now:0 in
      List.iter
        (fun issue_now ->
          let issued = Tls.Stek_manager.issuing m ~now:issue_now in
          List.iter
            (fun decrypt_now ->
              match
                Tls.Stek_manager.find_for_decrypt m ~now:decrypt_now (Tls.Stek.key_name issued)
              with
              | None -> () (* outside the accept window; nothing to compare *)
              | Some found ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: created_at issued@%d decrypted@%d" label issue_now
                       decrypt_now)
                    (Tls.Stek.created_at issued) (Tls.Stek.created_at found))
            [ issue_now; issue_now + 50; issue_now + 150 ])
        [ 10; 120; 260 ])
    [
      ("static", Tls.Stek_manager.Static);
      ("per-process", Tls.Stek_manager.Per_process);
      ("rotate", Tls.Stek_manager.Rotate_every { period = 100; accept_window = 150 });
      ("scheduled", Tls.Stek_manager.Scheduled [ 100; 200 ]);
    ]

let test_rotate_decrypt_window_created_at () =
  (* Regression: a [Rotate_every] accept-window key found one period back
     must carry its own period's start as [created_at], exactly as the
     issuing path stamped it — not the decrypt time. *)
  let m =
    Tls.Stek_manager.create
      ~policy:(Tls.Stek_manager.Rotate_every { period = 100; accept_window = 150 })
      ~secret:"rotate-window" ~now:0
  in
  let issued = Tls.Stek_manager.issuing m ~now:50 in
  Alcotest.(check int) "issued stamp is period start" 0 (Tls.Stek.created_at issued);
  (* One period later the key no longer issues but still decrypts. *)
  let current = Tls.Stek_manager.issuing m ~now:130 in
  Alcotest.(check bool) "rotation happened" false
    (String.equal (Tls.Stek.key_name issued) (Tls.Stek.key_name current));
  match Tls.Stek_manager.find_for_decrypt m ~now:130 (Tls.Stek.key_name issued) with
  | None -> Alcotest.fail "key inside accept window not found"
  | Some found ->
      Alcotest.(check string) "same key material" (Tls.Stek.key_name issued)
        (Tls.Stek.key_name found);
      Alcotest.(check int) "window key keeps its period-start stamp" 0
        (Tls.Stek.created_at found)

let test_per_process_stek_created_at () =
  (* Regression: a [Per_process] STEK conceptually exists from process
     start; stamping it with whichever probe first touched it inflated
     its apparent freshness by the idle time before the first ticket. *)
  let m = Tls.Stek_manager.create ~policy:Tls.Stek_manager.Per_process ~secret:"pp" ~now:0 in
  let first_use = Tls.Stek_manager.issuing m ~now:500 in
  Alcotest.(check int) "stamped with process start, not first use" 0
    (Tls.Stek.created_at first_use);
  (* Restart at 1000, first post-restart use at 1700: the fresh key dates
     from the restart. *)
  Tls.Stek_manager.restart m ~now:1000;
  let after_restart = Tls.Stek_manager.issuing m ~now:1700 in
  Alcotest.(check bool) "restart rotated the key" false
    (String.equal (Tls.Stek.key_name first_use) (Tls.Stek.key_name after_restart));
  Alcotest.(check int) "stamped with restart time" 1000 (Tls.Stek.created_at after_restart)

(* --- Ticket resumption ------------------------------------------------------------ *)

let ticket_offer (o : Tls.Engine.outcome) =
  match (o.Tls.Engine.new_ticket, o.Tls.Engine.session) with
  | Some (_, ticket), Some session -> Tls.Client.Offer_ticket { ticket; session }
  | _ -> Alcotest.fail "no ticket/session to offer"

let test_ticket_resumption () =
  let now = 1000 in
  let server = make_server ~now { (default_opts ~now) with cache_lifetime = None } in
  let client = make_client () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let o2 = connect client server ~now:(now + 60) ~offer:(ticket_offer o1) in
  expect_ok "ticket resumption" o2;
  Alcotest.(check bool) "resumed via ticket" true (o2.Tls.Engine.resumed = `Via_ticket);
  Alcotest.(check bool) "ticket reissued" true (o2.Tls.Engine.new_ticket <> None);
  (* Session keys remain constant across ticket resumption. *)
  Alcotest.(check bool) "same master secret" true
    (String.equal
       (Tls.Session.master_secret (Option.get o1.Tls.Engine.session))
       (Tls.Session.master_secret (Option.get o2.Tls.Engine.session)))

let test_ticket_expiry () =
  let now = 1000 in
  let tc = default_ticket_config ~accept_lifetime:300 ~now () in
  let server = make_server ~now { (default_opts ~now) with tickets = Some tc } in
  let client = make_client () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let o2 = connect client server ~now:(now + 299) ~offer:(ticket_offer o1) in
  Alcotest.(check bool) "honored before expiry" true (o2.Tls.Engine.resumed = `Via_ticket);
  let o3 = connect client server ~now:(now + 301) ~offer:(ticket_offer o1) in
  expect_ok "after expiry" o3;
  Alcotest.(check bool) "full handshake after expiry" true (o3.Tls.Engine.resumed = `No)

let test_ticket_no_reissue () =
  let now = 1000 in
  let tc = default_ticket_config ~reissue:false ~now () in
  let server = make_server ~now { (default_opts ~now) with tickets = Some tc } in
  let client = make_client () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let o2 = connect client server ~now:(now + 10) ~offer:(ticket_offer o1) in
  Alcotest.(check bool) "resumed" true (o2.Tls.Engine.resumed = `Via_ticket);
  Alcotest.(check bool) "no reissue" true (o2.Tls.Engine.new_ticket = None)

let test_client_without_ticket_ext () =
  let now = 1000 in
  let server = make_server ~now (default_opts ~now) in
  let client = make_client ~offer_ticket:false () in
  let o = connect client server ~now in
  expect_ok "handshake" o;
  Alcotest.(check bool) "no ticket without the extension" true (o.Tls.Engine.new_ticket = None)

let test_stek_rotation () =
  let now = 0 in
  let period = 3600 in
  let tc =
    default_ticket_config
      ~policy:(Tls.Stek_manager.Rotate_every { period; accept_window = period })
      ~accept_lifetime:(4 * period) ~now ()
  in
  let server = make_server ~now { (default_opts ~now) with tickets = Some tc } in
  let client = make_client () in
  let o1 = connect client server ~now:100 in
  expect_ok "first" o1;
  let key1 = Option.get o1.Tls.Engine.stek_key_name in
  (* Same period: same STEK. *)
  let o2 = connect client server ~now:200 in
  Alcotest.(check string) "same period, same STEK" key1
    (Option.get o2.Tls.Engine.stek_key_name);
  (* Next period: rotated. *)
  let o3 = connect client server ~now:(period + 100) in
  Alcotest.(check bool) "rotated" false
    (String.equal key1 (Option.get o3.Tls.Engine.stek_key_name));
  (* Old ticket still accepted within the accept window... *)
  let o4 = connect client server ~now:(period + 100) ~offer:(ticket_offer o1) in
  Alcotest.(check bool) "old ticket accepted in window" true
    (o4.Tls.Engine.resumed = `Via_ticket);
  (* ...but not once the issuing key left the window. *)
  let o5 = connect client server ~now:(3 * period) ~offer:(ticket_offer o1) in
  expect_ok "beyond window" o5;
  Alcotest.(check bool) "old ticket rejected beyond window" true (o5.Tls.Engine.resumed = `No)

let test_static_stek_never_rotates () =
  let now = 0 in
  let tc =
    default_ticket_config ~policy:Tls.Stek_manager.Static ~accept_lifetime:(365 * day) ~now ()
  in
  let server = make_server ~now { (default_opts ~now) with tickets = Some tc } in
  let client = make_client () in
  let o1 = connect client server ~now:0 in
  let o2 = connect client server ~now:(63 * day) in
  Alcotest.(check string) "same STEK 63 days apart"
    (Option.get o1.Tls.Engine.stek_key_name)
    (Option.get o2.Tls.Engine.stek_key_name)

let test_per_process_stek_restart () =
  let now = 0 in
  let tc = default_ticket_config ~policy:Tls.Stek_manager.Per_process ~now () in
  let server = make_server ~now { (default_opts ~now) with tickets = Some tc } in
  let client = make_client () in
  let o1 = connect client server ~now:0 in
  let o2 = connect client server ~now:100 in
  Alcotest.(check string) "stable across connections"
    (Option.get o1.Tls.Engine.stek_key_name)
    (Option.get o2.Tls.Engine.stek_key_name);
  Tls.Server.restart server ~now:200;
  let o3 = connect client server ~now:300 in
  Alcotest.(check bool) "fresh STEK after restart" false
    (String.equal
       (Option.get o1.Tls.Engine.stek_key_name)
       (Option.get o3.Tls.Engine.stek_key_name))

let test_shared_stek_cross_domain () =
  (* Two domains sharing a STEK manager: a ticket issued by one resumes on
     the other — the Section 5.2 measurement and the Google case study. *)
  let now = 1000 in
  let manager =
    Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"shared" ~now
  in
  let mk hostname =
    let cert, key = issue_leaf ~hostname () in
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites = T.all_cipher_suites;
          issue_session_ids = true;
          session_cache = None;
          tickets =
            Some
              {
                Tls.Config.stek_manager = manager;
                lifetime_hint = 3600;
                accept_lifetime = 3600;
                reissue_on_resumption = true;
              };
          kex_cache = Tls.Kex_cache.uniform ~policy:Tls.Kex_cache.Fresh_always;
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:("stek-shared-" ^ hostname))
  in
  let server_a = mk "mail.example" and server_b = mk "docs.example" in
  let client = make_client () in
  let o1 = connect ~hostname:"mail.example" client server_a ~now in
  expect_ok "initial" o1;
  let o2 =
    connect ~hostname:"docs.example" client server_b ~now:(now + 10) ~offer:(ticket_offer o1)
  in
  expect_ok "cross-domain ticket" o2;
  Alcotest.(check bool) "docs resumed mail's ticket" true (o2.Tls.Engine.resumed = `Via_ticket)

(* --- Ephemeral value reuse ---------------------------------------------------------- *)

let kex_of o = Option.get o.Tls.Engine.server_kex_public

let test_kex_fresh_policy () =
  let now = 1000 in
  let server =
    make_server ~now { (default_opts ~now) with kex_policy = Tls.Kex_cache.Fresh_always }
  in
  let client = make_client () in
  let o1 = connect client server ~now and o2 = connect client server ~now in
  Alcotest.(check bool) "fresh values differ" false (String.equal (kex_of o1) (kex_of o2))

let test_kex_reuse_policy () =
  let now = 1000 in
  let server =
    make_server ~now { (default_opts ~now) with kex_policy = Tls.Kex_cache.Reuse_for 60 }
  in
  let client = make_client () in
  let o1 = connect client server ~now in
  let o2 = connect client server ~now:(now + 59) in
  Alcotest.(check string) "value reused within ttl" (kex_of o1) (kex_of o2);
  let o3 = connect client server ~now:(now + 61) in
  Alcotest.(check bool) "rotated after ttl" false (String.equal (kex_of o1) (kex_of o3));
  (* Sessions still differ (client contribution is fresh). *)
  Alcotest.(check bool) "master secrets differ despite reuse" false
    (String.equal
       (Tls.Session.master_secret (Option.get o1.Tls.Engine.session))
       (Tls.Session.master_secret (Option.get o2.Tls.Engine.session)))

let test_kex_reuse_forever_until_restart () =
  let now = 1000 in
  let server =
    make_server ~now { (default_opts ~now) with kex_policy = Tls.Kex_cache.Reuse_forever }
  in
  let client = make_client () in
  let o1 = connect client server ~now in
  let o2 = connect client server ~now:(now + 100 * day) in
  Alcotest.(check string) "reused indefinitely" (kex_of o1) (kex_of o2);
  Tls.Server.restart server ~now:(now + 100 * day);
  let o3 = connect client server ~now:(now + 100 * day + 1) in
  Alcotest.(check bool) "fresh after restart" false (String.equal (kex_of o1) (kex_of o3))

(* --- X25519 group negotiation ----------------------------------------------------- *)

let make_x25519_client () =
  Tls.Client.create ~prefer_x25519:true
    ~config:
      {
        Tls.Config.cl_env = env;
        offer_suites = [ T.ECDHE_ECDSA_AES128_SHA256 ];
        offer_ticket = true;
        root_store;
        check_certs = false;
        evaluate_trust = true;
        verify_ske = true;
      }
    ~rng:(Crypto.Rng.create ~seed:"x25519-client") ()

let test_x25519_negotiation () =
  let now = 1000 in
  let server = make_server ~now (default_opts ~now) in
  (* A client ranking X25519 first gets a 32-byte Montgomery share. *)
  let o = connect (make_x25519_client ()) server ~now in
  expect_ok "x25519 handshake" o;
  (match o.Tls.Engine.server_kex_public with
  | Some v -> Alcotest.(check int) "x25519 share width" 32 (String.length v)
  | None -> Alcotest.fail "no kex value");
  (* The default client still gets the Weierstrass curve (SEC1 point,
     leading 0x04). *)
  let o2 = connect (make_client ()) server ~now in
  expect_ok "weierstrass handshake" o2;
  match o2.Tls.Engine.server_kex_public with
  | Some v ->
      (* SEC1 uncompressed encoding: 0x04 prefix, odd length (1 + 2*field). *)
      Alcotest.(check bool) "sec1 point" true (v.[0] = '\x04' && String.length v mod 2 = 1)
  | None -> Alcotest.fail "no kex value"

let test_x25519_reuse_policy () =
  (* The ECDHE reuse policy governs X25519 shares too. *)
  let now = 1000 in
  let server =
    make_server ~now { (default_opts ~now) with kex_policy = Tls.Kex_cache.Reuse_forever }
  in
  let client = make_x25519_client () in
  let o1 = connect client server ~now and o2 = connect client server ~now:(now + 3600) in
  Alcotest.(check string) "x25519 value reused" (kex_of o1) (kex_of o2);
  Tls.Server.restart server ~now:(now + 7200);
  let o3 = connect client server ~now:(now + 7201) in
  Alcotest.(check bool) "fresh after restart" false (String.equal (kex_of o1) (kex_of o3))

let test_x25519_resumption () =
  let now = 1000 in
  let server = make_server ~now (default_opts ~now) in
  let client = make_x25519_client () in
  let o1 = connect client server ~now in
  expect_ok "initial" o1;
  let o2 = connect client server ~now:(now + 30) ~offer:(ticket_offer o1) in
  Alcotest.(check bool) "ticket resumption over x25519 session" true
    (o2.Tls.Engine.resumed = `Via_ticket)

(* --- Certificates --------------------------------------------------------------------- *)

let test_cert_validation () =
  let now = 1000 in
  let curve = env.Tls.Config.pki_curve in
  let cert, _ = issue_leaf ~hostname:"example.com" ~sans:[ "www.example.com" ] () in
  let ok host = Tls.Cert.validate ~curve ~store:root_store ~now ~hostname:host [ cert ] in
  Alcotest.(check bool) "subject matches" true (Result.is_ok (ok "example.com"));
  Alcotest.(check bool) "san matches" true (Result.is_ok (ok "www.example.com"));
  Alcotest.(check bool) "other host rejected" false (Result.is_ok (ok "evil.com"))

let test_cert_wildcards () =
  Alcotest.(check bool) "wildcard one label" true
    (Tls.Cert.name_matches ~hostname:"a.example.com" "*.example.com");
  Alcotest.(check bool) "wildcard not two labels" false
    (Tls.Cert.name_matches ~hostname:"a.b.example.com" "*.example.com");
  Alcotest.(check bool) "wildcard not bare domain" false
    (Tls.Cert.name_matches ~hostname:"example.com" "*.example.com");
  Alcotest.(check bool) "case insensitive" true
    (Tls.Cert.name_matches ~hostname:"EXAMPLE.com" "example.COM")

let test_cert_expiry () =
  let curve = env.Tls.Config.pki_curve in
  let cert, _ = issue_leaf ~not_before:100 ~not_after:200 () in
  let validate now =
    Tls.Cert.validate ~curve ~store:root_store ~now ~hostname:"example.com" [ cert ]
  in
  Alcotest.(check bool) "valid inside window" true (Result.is_ok (validate 150));
  Alcotest.(check bool) "not yet valid" false (Result.is_ok (validate 50));
  Alcotest.(check bool) "expired" false (Result.is_ok (validate 250))

let test_cert_untrusted_root () =
  let curve = env.Tls.Config.pki_curve in
  let rogue =
    Tls.Cert.self_signed ~curve ~name:"Rogue CA" ~not_before:0 ~not_after:(3650 * day) ~serial:666
      (Crypto.Rng.create ~seed:"rogue")
  in
  let r = Crypto.Rng.create ~seed:"rogue-leaf" in
  let keypair = Crypto.Ecdsa.gen_keypair curve r in
  let cert =
    Tls.Cert.issue rogue ~curve ~subject:"example.com" ~not_before:0 ~not_after:(3650 * day)
      ~serial:1
      ~pub:(Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key keypair))
      r
  in
  match Tls.Cert.validate ~curve ~store:root_store ~now:1000 ~hostname:"example.com" [ cert ] with
  | Error (Tls.Cert.Untrusted_root _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Tls.Cert.pp_validation_error e)
  | Ok _ -> Alcotest.fail "rogue chain accepted"

let test_cert_chain_with_intermediate () =
  let curve = env.Tls.Config.pki_curve in
  let r = Crypto.Rng.create ~seed:"intermediate" in
  let int_key = Crypto.Ecdsa.gen_keypair curve r in
  let intermediate =
    Tls.Cert.issue ca ~curve ~subject:"Test Intermediate CA" ~is_ca:true ~not_before:0
      ~not_after:(3650 * day) ~serial:2
      ~pub:(Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key int_key))
      r
  in
  let int_authority = Tls.Cert.authority_of ~cert:intermediate ~keypair:int_key in
  let leaf_key = Crypto.Ecdsa.gen_keypair curve r in
  let leaf =
    Tls.Cert.issue int_authority ~curve ~subject:"deep.example.com" ~not_before:0
      ~not_after:(3650 * day) ~serial:3
      ~pub:(Crypto.Ec.point_bytes curve (Crypto.Ecdsa.public_key leaf_key))
      r
  in
  Alcotest.(check bool) "chain through intermediate" true
    (Result.is_ok
       (Tls.Cert.validate ~curve ~store:root_store ~now:1000 ~hostname:"deep.example.com"
          [ leaf; intermediate ]))

let test_cert_codec_roundtrip () =
  let cert, _ = issue_leaf ~sans:[ "www.example.com"; "api.example.com" ] () in
  match Tls.Cert.of_bytes (Tls.Cert.to_bytes cert) with
  | Error e -> Alcotest.fail e
  | Ok cert' ->
      Alcotest.(check string) "subject" (Tls.Cert.subject cert) (Tls.Cert.subject cert');
      Alcotest.(check string) "issuer" (Tls.Cert.issuer cert) (Tls.Cert.issuer cert');
      Alcotest.(check bool) "pub preserved" true
        (String.equal (Tls.Cert.public_key cert) (Tls.Cert.public_key cert'))

(* --- Wire codecs ------------------------------------------------------------------------ *)

let roundtrip_msg msg =
  match Msg.of_bytes (Msg.to_bytes msg) with
  | Ok m -> m
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_handshake_codec () =
  let ch =
    Msg.Client_hello
      {
        ch_version = T.TLS_1_2;
        ch_random = String.init 32 Char.chr;
        ch_session_id = "0123456789abcdef";
        ch_cipher_suites = [ 0xffa1; 0xffa2; 0x1301 ];
        ch_extensions =
          [ Tls.Extension.Server_name "example.com"; Tls.Extension.Session_ticket "" ];
      }
  in
  Alcotest.(check bool) "client hello" true (roundtrip_msg ch = ch);
  let sh =
    Msg.Server_hello
      {
        sh_version = T.TLS_1_2;
        sh_random = String.make 32 'r';
        sh_session_id = "";
        sh_cipher_suite = T.DHE_ECDSA_AES128_SHA256;
        sh_extensions = [ Tls.Extension.Session_ticket "" ];
      }
  in
  Alcotest.(check bool) "server hello" true (roundtrip_msg sh = sh);
  let ske =
    Msg.Server_key_exchange
      {
        ske_params = Msg.Ske_dhe { dh_p = "\xff\x01"; dh_g = "\x04"; dh_ys = "\x12\x34" };
        ske_signature = String.make 16 's';
      }
  in
  Alcotest.(check bool) "server key exchange" true (roundtrip_msg ske = ske);
  let nst = Msg.New_session_ticket { nst_lifetime_hint = 7200; nst_ticket = "opaque" } in
  Alcotest.(check bool) "new session ticket" true (roundtrip_msg nst = nst);
  Alcotest.(check bool) "hello done" true (roundtrip_msg Msg.Server_hello_done = Msg.Server_hello_done);
  Alcotest.(check bool) "finished" true
    (roundtrip_msg (Msg.Finished (String.make 12 'v')) = Msg.Finished (String.make 12 'v'))

let test_codec_rejects_garbage () =
  (match Msg.of_bytes "\x99\x00\x00\x01x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown message type");
  match Msg.of_bytes "\x01\x00\x00\x05hello-too-short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated client hello"

(* The one-encoding rule rests on this: every flight a receiver parses
   re-encodes to exactly the bytes it arrived as, so hashing the received
   bytes and hashing the re-encoded message give one transcript. *)
let check_reencodes what bytes =
  match Msg.read_all bytes with
  | Error e -> Alcotest.failf "%s: flight does not parse: %s" what e
  | Ok msgs ->
      List.iter
        (fun (m : Msg.framed) ->
          Alcotest.(check string) (what ^ ": message bytes") (Msg.to_bytes m.Msg.msg) m.Msg.bytes)
        msgs;
      Alcotest.(check string) (what ^ ": flight bytes") bytes
        (String.concat "" (List.map (fun (m : Msg.framed) -> m.Msg.bytes) msgs))

let test_engine_flights_reencode () =
  let now = 1000 in
  let flights = ref 0 in
  let wiretap _ bytes =
    incr flights;
    check_reencodes (Printf.sprintf "flight %d" !flights) bytes
  in
  let connect ?(offer = Tls.Client.Fresh) client server =
    Tls.Engine.connect ~wiretap client server ~now ~hostname:"example.com" ~offer
  in
  List.iter
    (fun suite ->
      let server = make_server ~now (default_opts ~now) in
      let client = make_client ~suites:[ suite ] () in
      let o = connect client server in
      expect_ok "full handshake" o;
      let session = Option.get o.Tls.Engine.session in
      expect_ok "session-ID resumption"
        (connect client server ~offer:(Tls.Client.Offer_session_id session));
      let _, ticket = Option.get o.Tls.Engine.new_ticket in
      expect_ok "ticket resumption"
        (connect client server ~offer:(Tls.Client.Offer_ticket { ticket; session })))
    T.all_cipher_suites;
  let server = make_server ~now (default_opts ~now) in
  let x25519 =
    Tls.Client.create ~prefer_x25519:true
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites = T.all_cipher_suites;
          offer_ticket = true;
          root_store;
          check_certs = false;
          evaluate_trust = true;
          verify_ske = true;
        }
      ~rng:(rng ()) ()
  in
  expect_ok "x25519 handshake" (connect x25519 server);
  Alcotest.(check int) "flights seen" ((3 * 10) + 4) !flights

let gen_msg =
  QCheck2.Gen.(
    let bytes lo hi = string_size (int_range lo hi) in
    let random = string_size (return T.random_len) in
    let ext =
      oneof
        [
          map (fun s -> Tls.Extension.Server_name s) (bytes 1 30);
          map (fun s -> Tls.Extension.Session_ticket s) (bytes 0 100);
          map
            (fun l -> Tls.Extension.Supported_groups l)
            (list_size (int_range 0 5) (int_range 0 0xffff));
          return Tls.Extension.Renegotiation_info;
        ]
    in
    let exts = list_size (int_range 0 4) ext in
    let suite = oneofl T.all_cipher_suites in
    oneof
      [
        map
          (fun (((ch_random, ch_session_id), ch_cipher_suites), ch_extensions) ->
            Msg.Client_hello
              { ch_version = T.TLS_1_2; ch_random; ch_session_id; ch_cipher_suites; ch_extensions })
          (pair
             (pair (pair random (bytes 0 32)) (list_size (int_range 0 6) (int_range 0 0xffff)))
             exts);
        map
          (fun (((sh_random, sh_session_id), sh_cipher_suite), sh_extensions) ->
            Msg.Server_hello
              { sh_version = T.TLS_1_2; sh_random; sh_session_id; sh_cipher_suite; sh_extensions })
          (pair (pair (pair random (bytes 0 32)) suite) exts);
        map (fun chain -> Msg.Certificate chain) (list_size (int_range 0 3) (bytes 0 300));
        map
          (fun ((dh_p, dh_g), (dh_ys, ske_signature)) ->
            Msg.Server_key_exchange
              { ske_params = Msg.Ske_dhe { dh_p; dh_g; dh_ys }; ske_signature })
          (pair (pair (bytes 0 40) (bytes 0 4)) (pair (bytes 0 40) (bytes 0 40)));
        map
          (fun ((curve_id, point), ske_signature) ->
            Msg.Server_key_exchange
              { ske_params = Msg.Ske_ecdhe { curve_id; point }; ske_signature })
          (pair (pair (int_range 0 0xffff) (bytes 0 70)) (bytes 0 40));
        return Msg.Server_hello_done;
        map (fun s -> Msg.Client_key_exchange s) (bytes 0 70);
        map
          (fun (nst_lifetime_hint, nst_ticket) ->
            Msg.New_session_ticket { nst_lifetime_hint; nst_ticket })
          (pair (int_range 0 0x7fffffff) (bytes 0 200));
        map (fun s -> Msg.Finished s) (string_size (return T.verify_data_len));
      ])

let prop_flight_reencodes =
  QCheck2.Test.make ~name:"generated flights re-encode to their bytes" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 5) gen_msg)
    (fun msgs ->
      let bytes = String.concat "" (List.map Msg.to_bytes msgs) in
      check_reencodes "generated flight" bytes;
      true)

(* A manager keeps the STEKs of its newest two rotation periods; from
   any sequence of issue and decrypt queries it must answer exactly as a
   fresh manager, which has derived nothing yet, answers each one. The
   accept window reaches three periods back, past the two kept. *)
let prop_stek_memo_transparent =
  QCheck2.Test.make ~name:"stek memo answers as a fresh manager" ~count:150
    QCheck2.Gen.(
      pair bool (list_size (int_range 1 20) (pair (int_range 0 2000) (int_range 0 2000))))
    (fun (scheduled, queries) ->
      let policy =
        if scheduled then Tls.Stek_manager.Scheduled [ 300; 700; 1200 ]
        else Tls.Stek_manager.Rotate_every { period = 100; accept_window = 250 }
      in
      let fresh () = Tls.Stek_manager.create ~policy ~secret:"memo" ~now:0 in
      let kept = fresh () in
      let same a b =
        String.equal (Tls.Stek.key_name a) (Tls.Stek.key_name b)
        && Tls.Stek.created_at a = Tls.Stek.created_at b
      in
      List.for_all
        (fun (now, issued_at) ->
          let name = Tls.Stek.key_name (Tls.Stek_manager.issuing (fresh ()) ~now:issued_at) in
          same (Tls.Stek_manager.issuing kept ~now) (Tls.Stek_manager.issuing (fresh ()) ~now)
          &&
          match
            ( Tls.Stek_manager.find_for_decrypt kept ~now name,
              Tls.Stek_manager.find_for_decrypt (fresh ()) ~now name )
          with
          | None, None -> true
          | Some a, Some b -> same a b
          | Some _, None | None, Some _ -> false)
        queries)

let prop_extension_roundtrip =
  QCheck2.Test.make ~name:"extension block roundtrip" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 5)
        (oneof
           [
             map (fun s -> Tls.Extension.Server_name s) (string_size (int_range 1 30));
             map (fun s -> Tls.Extension.Session_ticket s) (string_size (int_range 0 100));
             map (fun l -> Tls.Extension.Supported_groups l) (list_size (int_range 0 5) (int_range 0 0xffff));
             return Tls.Extension.Renegotiation_info;
           ]))
    (fun exts ->
      let bytes = Wire.Writer.build (fun w -> Tls.Extension.write_block w exts) in
      let decoded = Wire.Reader.parse bytes Tls.Extension.read_block in
      decoded = exts)

(* --- Hostile wire input ------------------------------------------------------------------- *)

let test_oversized_session_id_rejected () =
  let sh id =
    Msg.to_bytes
      (Msg.Server_hello
         {
           sh_version = T.TLS_1_2;
           sh_random = String.make 32 'r';
           sh_session_id = id;
           sh_cipher_suite = T.ECDHE_ECDSA_AES128_SHA256;
           sh_extensions = [];
         })
  in
  (match Msg.of_bytes (sh (String.make 32 'x')) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "32-byte session ID rejected: %s" e);
  match Msg.of_bytes (sh (String.make 33 'x')) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "33-byte session ID accepted"

let test_hostile_session_blob_rejected () =
  (* A session blob with a 33-byte ID: the length check fires before any
     downstream field is interpreted. *)
  (match Tls.Session.of_bytes ("\x21" ^ String.make 33 'i') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized session ID in blob accepted");
  (* And one whose master secret is not the TLS-mandated 48 bytes. *)
  match Tls.Session.of_bytes ("\x00" ^ "\x03abc") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "3-byte master secret accepted"

let test_hostile_ske_params_rejected () =
  (* Peer-supplied DHE parameters are attacker-controlled bytes; every
     hostile shape must come back as a typed [Error], never an exception
     from the bignum layer, and never a completed key exchange. *)
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites = T.all_cipher_suites;
          offer_ticket = false;
          root_store;
          check_certs = false;
          evaluate_trust = false;
          verify_ske = false;
        }
      ~rng:(Crypto.Rng.create ~seed:"hostile-ske") ()
  in
  let cert, _ = issue_leaf () in
  let flight ~dh_p ~dh_g ~dh_ys =
    [
      Msg.Server_hello
        {
          sh_version = T.TLS_1_2;
          sh_random = String.make 32 'r';
          sh_session_id = "";
          sh_cipher_suite = T.DHE_ECDSA_AES128_SHA256;
          sh_extensions = [];
        };
      Msg.Certificate [ Tls.Cert.to_bytes cert ];
      Msg.Server_key_exchange
        { ske_params = Msg.Ske_dhe { dh_p; dh_g; dh_ys }; ske_signature = "sig" };
      Msg.Server_hello_done;
    ]
  in
  let drive ~dh_p ~dh_g ~dh_ys =
    let _hello, state =
      Tls.Client.hello client ~now:1000 ~hostname:"example.com" ~offer:Tls.Client.Fresh
    in
    match
      Tls.Client.handle_server_flight state (List.map Msg.frame (flight ~dh_p ~dh_g ~dh_ys))
    with
    | Ok _ -> `Completed
    | Error _ -> `Rejected
    | exception e -> Alcotest.failf "engine raised %s" (Printexc.to_string e)
  in
  (* Control: the environment's own group must still negotiate. *)
  let group = env.Tls.Config.dh_group in
  let p = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_p group) in
  let g = Crypto.Bignum.to_bytes_be (Crypto.Dh.group_g group) in
  (match drive ~dh_p:p ~dh_g:g ~dh_ys:"\x02\xab\xcd\xef" with
  | `Completed -> ()
  | `Rejected -> Alcotest.fail "legitimate DHE params rejected");
  let hostile =
    [
      ("even modulus", String.make 256 '\xfe', "\x02");
      ("tiny modulus", "\x05", "\x02");
      ("huge modulus", String.make 1025 '\xff', "\x02");
      ("generator one", String.make 255 '\xff', "\x01");
      ("generator = p", String.make 255 '\xff', String.make 255 '\xff');
      ("zero modulus", "\x00", "\x02");
    ]
  in
  List.iter
    (fun (what, dh_p, dh_g) ->
      match drive ~dh_p ~dh_g ~dh_ys:"\x02" with
      | `Rejected -> ()
      | `Completed -> Alcotest.failf "%s completed the key exchange" what)
    hostile

(* --- Tickets: tampering and theft --------------------------------------------------------- *)

let test_ticket_tamper_rejected () =
  let now = 1000 in
  let rng = Crypto.Rng.create ~seed:"tamper" in
  let stek = Tls.Stek.generate rng ~now in
  let session =
    Tls.Session.make ~id:"" ~master_secret:(String.make 48 'm')
      ~cipher_suite:T.ECDHE_ECDSA_AES128_SHA256 ~established_at:now
  in
  let ticket = Tls.Ticket.seal stek rng session in
  let find_stek name = if String.equal name (Tls.Stek.key_name stek) then Some stek else None in
  (match Tls.Ticket.unseal ~find_stek ticket with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (Tls.Session.equal s session)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Tls.Ticket.pp_unseal_error e));
  (* Flip one ciphertext byte: the MAC must catch it. *)
  let tampered = Bytes.of_string ticket in
  let mid = String.length ticket / 2 in
  Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
  (match Tls.Ticket.unseal ~find_stek (Bytes.to_string tampered) with
  | Error Tls.Ticket.Bad_mac -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Tls.Ticket.pp_unseal_error e)
  | Ok _ -> Alcotest.fail "tampered ticket accepted");
  (* Unknown STEK. *)
  match Tls.Ticket.unseal ~find_stek:(fun _ -> None) ticket with
  | Error (Tls.Ticket.Unknown_key_name _) -> ()
  | _ -> Alcotest.fail "expected unknown key name"

let test_stolen_stek_attack () =
  (* The paper's core attack: a passive observer records the ticket from
     the wire; later the STEK leaks; the session state (and master
     secret) falls out. *)
  let now = 1000 in
  let server = make_server ~now (default_opts ~now) in
  let client = make_client () in
  let o = connect client server ~now in
  expect_ok "victim connection" o;
  let _, recorded_ticket = Option.get o.Tls.Engine.new_ticket in
  (* The attacker later compromises the server's STEK manager. *)
  let tc = Option.get (Tls.Server.config server).Tls.Config.tickets in
  let stolen key_name =
    Tls.Stek_manager.find_for_decrypt tc.Tls.Config.stek_manager ~now key_name
  in
  match Tls.Ticket.decrypt_with_stolen_stek ~find_stek:stolen recorded_ticket with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Tls.Ticket.pp_unseal_error e)
  | Ok recovered ->
      Alcotest.(check string) "master secret recovered"
        (Tls.Session.master_secret (Option.get o.Tls.Engine.session))
        (Tls.Session.master_secret recovered)

(* --- Record layer --------------------------------------------------------------------------- *)

let test_record_roundtrip () =
  let keys =
    Tls.Record.derive_keys ~master:(String.make 48 'M') ~client_random:(String.make 32 'c')
      ~server_random:(String.make 32 's')
  in
  let tx = Tls.Record.cipher_state keys.Tls.Record.client_write in
  let rx = Tls.Record.cipher_state keys.Tls.Record.client_write in
  let msg = String.concat "" (List.init 100 (fun i -> Printf.sprintf "record %d;" i)) in
  let records = Tls.Record.seal_application_data tx msg in
  (match Tls.Record.open_application_data rx records with
  | Ok plain -> Alcotest.(check string) "roundtrip" msg plain
  | Error a -> Alcotest.fail (Format.asprintf "%a" T.pp_alert a));
  (* Replay (wrong sequence number) is rejected. *)
  let rx2 = Tls.Record.cipher_state keys.Tls.Record.client_write in
  let r = List.hd records in
  match (Tls.Record.open_ rx2 r, Tls.Record.open_ rx2 r) with
  | Ok _, Error T.Bad_record_mac -> ()
  | _ -> Alcotest.fail "replayed record not rejected"

let test_record_tamper () =
  let keys =
    Tls.Record.derive_keys ~master:(String.make 48 'K') ~client_random:(String.make 32 'c')
      ~server_random:(String.make 32 's')
  in
  let tx = Tls.Record.cipher_state keys.Tls.Record.server_write in
  let rx = Tls.Record.cipher_state keys.Tls.Record.server_write in
  let sealed = Tls.Record.seal tx (Tls.Record.make ~content_type:T.Application_data "secret") in
  let bytes = Bytes.of_string (Tls.Record.payload sealed) in
  Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 0xff));
  let forged = Tls.Record.make ~content_type:T.Application_data (Bytes.to_string bytes) in
  match Tls.Record.open_ rx forged with
  | Error T.Bad_record_mac -> ()
  | _ -> Alcotest.fail "tampered record accepted"

let test_record_codec () =
  let r = Tls.Record.make ~content_type:T.Handshake_ct "payload bytes" in
  match Tls.Record.of_bytes (Tls.Record.to_bytes r) with
  | Ok r' ->
      Alcotest.(check bool) "roundtrip" true
        (Tls.Record.content_type r' = T.Handshake_ct
        && String.equal (Tls.Record.payload r') "payload bytes")
  | Error e -> Alcotest.fail e

(* --- Property: many randomized handshake schedules ------------------------------------------- *)

let prop_handshake_schedules =
  QCheck2.Test.make ~name:"randomized resumption schedules stay consistent" ~count:40
    QCheck2.Gen.(pair small_int (list_size (int_range 1 8) (int_range 0 600)))
    (fun (salt, delays) ->
      let now = 10_000 in
      let server = make_server ~now (default_opts ~now) in
      let client =
        Tls.Client.create
          ~config:
            {
              Tls.Config.cl_env = env;
              offer_suites = T.all_cipher_suites;
              offer_ticket = true;
              root_store;
              check_certs = false;
              evaluate_trust = true;
              verify_ske = true;
            }
          ~rng:(Crypto.Rng.create ~seed:(Printf.sprintf "sched-%d" salt)) ()
      in
      let o0 = connect client server ~now in
      if not o0.Tls.Engine.ok then false
      else begin
        let t = ref now in
        let last = ref o0 in
        List.for_all
          (fun delay ->
            t := !t + delay;
            let offer =
              match (!last).Tls.Engine.new_ticket, (!last).Tls.Engine.session with
              | Some (_, ticket), Some session -> Tls.Client.Offer_ticket { ticket; session }
              | _, Some session when Tls.Session.id session <> "" ->
                  Tls.Client.Offer_session_id session
              | _ -> Tls.Client.Fresh
            in
            let o = connect client server ~now:!t ~offer in
            if o.Tls.Engine.ok then begin
              last := o;
              true
            end
            else false)
          delays
      end)

(* --- Suite ------------------------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "tls"
    [
      ( "handshake",
        [
          Alcotest.test_case "full handshake" `Quick test_full_handshake;
          Alcotest.test_case "every cipher suite" `Quick test_each_suite;
          Alcotest.test_case "no common suite" `Quick test_no_common_suite;
        ] );
      ( "session-id-resumption",
        [
          Alcotest.test_case "resume" `Quick test_session_id_resumption;
          Alcotest.test_case "expiry" `Quick test_session_id_expiry;
          Alcotest.test_case "no cache never resumes" `Quick test_no_cache_never_resumes;
          Alcotest.test_case "shared cache cross-domain" `Quick test_shared_session_cache;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "store drops expired sessions" `Quick test_cache_drops_expired;
        ] );
      ( "ticket-resumption",
        [
          Alcotest.test_case "resume" `Quick test_ticket_resumption;
          Alcotest.test_case "expiry" `Quick test_ticket_expiry;
          Alcotest.test_case "no reissue" `Quick test_ticket_no_reissue;
          Alcotest.test_case "client without extension" `Quick test_client_without_ticket_ext;
          Alcotest.test_case "stek rotation" `Quick test_stek_rotation;
          Alcotest.test_case "static stek" `Quick test_static_stek_never_rotates;
          Alcotest.test_case "per-process stek restart" `Quick test_per_process_stek_restart;
          Alcotest.test_case "shared stek cross-domain" `Quick test_shared_stek_cross_domain;
          Alcotest.test_case "scheduled stek created_at" `Quick test_scheduled_stek_created_at;
          Alcotest.test_case "created_at agrees on issue and decrypt" `Quick
            test_stek_created_at_issue_decrypt_agree;
          Alcotest.test_case "rotate window key keeps period stamp" `Quick
            test_rotate_decrypt_window_created_at;
          Alcotest.test_case "per-process stek dates from process start" `Quick
            test_per_process_stek_created_at;
        ] );
      ( "kex-reuse",
        [
          Alcotest.test_case "fresh policy" `Quick test_kex_fresh_policy;
          Alcotest.test_case "reuse for ttl" `Quick test_kex_reuse_policy;
          Alcotest.test_case "reuse forever until restart" `Quick test_kex_reuse_forever_until_restart;
        ] );
      ( "x25519",
        [
          Alcotest.test_case "group negotiation" `Quick test_x25519_negotiation;
          Alcotest.test_case "reuse policy applies" `Quick test_x25519_reuse_policy;
          Alcotest.test_case "resumption" `Quick test_x25519_resumption;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "validation" `Quick test_cert_validation;
          Alcotest.test_case "wildcards" `Quick test_cert_wildcards;
          Alcotest.test_case "expiry" `Quick test_cert_expiry;
          Alcotest.test_case "untrusted root" `Quick test_cert_untrusted_root;
          Alcotest.test_case "intermediate chain" `Quick test_cert_chain_with_intermediate;
          Alcotest.test_case "codec roundtrip" `Quick test_cert_codec_roundtrip;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "handshake messages" `Quick test_handshake_codec;
          Alcotest.test_case "garbage rejection" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "engine flights re-encode to their bytes" `Quick
            test_engine_flights_reencode;
        ] );
      qsuite "codec-properties" [ prop_extension_roundtrip; prop_flight_reencodes ];
      ( "hostile-wire",
        [
          Alcotest.test_case "oversized session ID" `Quick test_oversized_session_id_rejected;
          Alcotest.test_case "hostile session blob" `Quick test_hostile_session_blob_rejected;
          Alcotest.test_case "hostile SKE params" `Quick test_hostile_ske_params_rejected;
        ] );
      ( "tickets",
        [
          Alcotest.test_case "tamper rejected" `Quick test_ticket_tamper_rejected;
          Alcotest.test_case "stolen stek attack" `Quick test_stolen_stek_attack;
        ] );
      ( "record-layer",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "tamper" `Quick test_record_tamper;
          Alcotest.test_case "codec" `Quick test_record_codec;
        ] );
      qsuite "handshake-properties" [ prop_handshake_schedules; prop_stek_memo_transparent ];
    ]
