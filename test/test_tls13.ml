(* Tests for the TLS 1.3 resumption model (the paper's section 2.4 made
   executable): HKDF known-answer vectors, key-schedule agreement,
   psk_ke vs psk_dhe_ke resumption, 0-RTT, binder and expiry checks, and
   the stolen-STEK attack split the modes imply. *)

let hex = Wire.Hex.decode

let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Wire.Hex.encode actual)

(* --- HKDF (RFC 5869) ---------------------------------------------------------- *)

let test_hkdf_case1 () =
  let ikm = String.make 22 '\x0b' in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Crypto.Hkdf.extract ~salt ikm in
  check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Crypto.Hkdf.expand ~prk ~info 42)

let test_hkdf_case3 () =
  (* Empty salt and info. *)
  let ikm = String.make 22 '\x0b' in
  let prk = Crypto.Hkdf.extract ikm in
  check_hex "prk" "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04" prk;
  check_hex "okm"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Crypto.Hkdf.expand ~prk ~info:"" 42)

let test_expand_label_shape () =
  let s = Crypto.Hkdf.expand_label ~secret:(String.make 32 's') ~label:"key" ~context:"" 16 in
  Alcotest.(check int) "length honored" 16 (String.length s);
  let s2 = Crypto.Hkdf.expand_label ~secret:(String.make 32 's') ~label:"iv" ~context:"" 16 in
  Alcotest.(check bool) "labels separate" false (String.equal s s2)

(* --- Fixture -------------------------------------------------------------------- *)

let env = Tls.Config.sim_env ()
let curve = env.Tls.Config.ecdhe_curve
let day = 86_400

let make_server ?(modes = [ Tls.Tls13.Psk_ke; Tls.Tls13.Psk_dhe_ke ]) ?(max_early_data = 16384)
    ?(psk_lifetime = 7 * day) ?(stek_policy = Tls.Stek_manager.Static) () =
  Tls.Tls13.server
    ~config:
      {
        Tls.Tls13.curve;
        stek_manager = Tls.Stek_manager.create ~policy:stek_policy ~secret:"t13" ~now:0;
        psk_lifetime;
        allowed_modes = modes;
        max_early_data;
      }
    ~rng:(Crypto.Rng.create ~seed:"t13-server")

let crng () = Crypto.Rng.create ~seed:"t13-client"

let expect_ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* --- Handshakes ------------------------------------------------------------------ *)

let test_fresh_handshake () =
  let server = make_server () in
  let rng = crng () in
  let sr, cl = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13) in
  Alcotest.(check bool) "not resumed" false cl.Tls.Tls13.cl_resumed;
  Alcotest.(check bool) "ticket issued" true (cl.Tls.Tls13.cl_new_ticket <> None);
  (* Both sides agree on traffic secrets. *)
  Alcotest.(check string) "client app traffic agrees"
    (Wire.Hex.encode sr.Tls.Tls13.sr_secrets.Tls.Tls13.client_app_traffic)
    (Wire.Hex.encode cl.Tls.Tls13.cl_secrets.Tls.Tls13.client_app_traffic)

let resume ?early_data ~mode server rng ~now =
  let _, cl1 = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:(now - 60) ~offer:Tls.Tls13.Fresh13) in
  let ticket, state = Option.get cl1.Tls.Tls13.cl_new_ticket in
  Tls.Tls13.connect ~client_rng:rng server ~now
    ~offer:(Tls.Tls13.Resume13 { ticket; state; mode; early_data })

let test_psk_ke_resumption () =
  let server = make_server () in
  let sr, cl = expect_ok (resume ~mode:Tls.Tls13.Psk_ke server (crng ()) ~now:1000) in
  Alcotest.(check bool) "resumed" true cl.Tls.Tls13.cl_resumed;
  Alcotest.(check bool) "no server key share in psk_ke" true
    (sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_key_share = None);
  Alcotest.(check bool) "fresh ticket for next time" true (cl.Tls.Tls13.cl_new_ticket <> None)

let test_psk_dhe_ke_resumption () =
  let server = make_server () in
  let sr, cl = expect_ok (resume ~mode:Tls.Tls13.Psk_dhe_ke server (crng ()) ~now:1000) in
  Alcotest.(check bool) "resumed" true cl.Tls.Tls13.cl_resumed;
  Alcotest.(check bool) "server sends a key share" true
    (sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_key_share <> None)

let test_zero_rtt () =
  let server = make_server () in
  let sr, _ =
    expect_ok (resume ~early_data:"GET /fast" ~mode:Tls.Tls13.Psk_dhe_ke server (crng ()) ~now:1000)
  in
  match sr.Tls.Tls13.sr_early_data with
  | Some (Ok data) -> Alcotest.(check string) "early data decrypted by server" "GET /fast" data
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no early data seen"

let test_zero_rtt_disabled () =
  let server = make_server ~max_early_data:0 () in
  let sr, _ =
    expect_ok (resume ~early_data:"GET /fast" ~mode:Tls.Tls13.Psk_ke server (crng ()) ~now:1000)
  in
  match sr.Tls.Tls13.sr_early_data with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "early data accepted though disabled"
  | None -> Alcotest.fail "early data not observed"

let test_psk_expiry () =
  let server = make_server ~psk_lifetime:(7 * day) () in
  (* Ticket issued at t=100; resume 8 days later: the PSK is expired, so
     a full handshake runs (the psk_dhe_ke offer still has a key share). *)
  let rng = crng () in
  let _, cl1 = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13) in
  let ticket, state = Option.get cl1.Tls.Tls13.cl_new_ticket in
  let sr, cl =
    expect_ok
      (Tls.Tls13.connect ~client_rng:rng server ~now:(8 * day)
         ~offer:
           (Tls.Tls13.Resume13 { ticket; state; mode = Tls.Tls13.Psk_dhe_ke; early_data = None }))
  in
  Alcotest.(check bool) "not resumed" false cl.Tls.Tls13.cl_resumed;
  Alcotest.(check bool) "psk rejected" false sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_psk_accepted

let test_mode_restriction () =
  (* A server allowing only psk_dhe_ke rejects psk_ke offers. *)
  let server = make_server ~modes:[ Tls.Tls13.Psk_dhe_ke ] () in
  match resume ~mode:Tls.Tls13.Psk_ke server (crng ()) ~now:1000 with
  | Ok (_, cl) -> Alcotest.(check bool) "psk_ke refused" false cl.Tls.Tls13.cl_resumed
  | Error _ -> () (* pure psk_ke offer carries no key share: failure is also correct *)

let test_binder_required () =
  let server = make_server () in
  let rng = crng () in
  let _, cl1 = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13) in
  let ticket, state = Option.get cl1.Tls.Tls13.cl_new_ticket in
  (* Wrong PSK state (hence wrong binder): the server must fall back. *)
  let bogus = { state with Tls.Tls13.psk = String.make 32 'x' } in
  let sr, cl =
    expect_ok
      (Tls.Tls13.connect ~client_rng:rng server ~now:200
         ~offer:(Tls.Tls13.Resume13 { ticket; state = bogus; mode = Tls.Tls13.Psk_dhe_ke; early_data = None }))
  in
  Alcotest.(check bool) "binder mismatch rejected" false sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_psk_accepted;
  Alcotest.(check bool) "fell back to full handshake" false cl.Tls.Tls13.cl_resumed

(* --- The attack split --------------------------------------------------------------- *)

let test_attack_psk_ke () =
  let server = make_server () in
  let rng = crng () in
  let _, cl1 = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13) in
  let ticket, state = Option.get cl1.Tls.Tls13.cl_new_ticket in
  (* The wire message the observer records (psk_ke: no key share). *)
  let ch, _ =
    Tls.Tls13.hello ~curve ~rng
      (Tls.Tls13.Resume13 { ticket; state; mode = Tls.Tls13.Psk_ke; early_data = None })
  in
  let sr = expect_ok (Tls.Tls13.handle_client_hello server ~now:1000 ch) in
  Alcotest.(check bool) "resumed" true sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_psk_accepted;
  let recorded_app =
    Tls.Tls13.protect
      ~traffic_secret:sr.Tls.Tls13.sr_secrets.Tls.Tls13.client_app_traffic
      "password=123"
  in
  (* The compromise: the server's STEK manager. *)
  let find_stek name =
    Tls.Stek_manager.find_for_decrypt server.Tls.Tls13.sc.Tls.Tls13.stek_manager ~now:2000 name
  in
  let outcome =
    Tls.Tls13.attack ~find_stek ~ch ~sh:sr.Tls.Tls13.sr_hello ~recorded_app
  in
  match outcome.Tls.Tls13.app_data with
  | Ok plain -> Alcotest.(check string) "psk_ke app data falls" "password=123" plain
  | Error e -> Alcotest.fail e

let test_attack_psk_dhe_ke () =
  let server = make_server () in
  let rng = crng () in
  let _, cl1 = expect_ok (Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13) in
  let ticket, state = Option.get cl1.Tls.Tls13.cl_new_ticket in
  (* 0-RTT early data rides in the hello, keyed from the PSK alone. *)
  let ch, _ =
    Tls.Tls13.hello ~curve ~rng
      (Tls.Tls13.Resume13 { ticket; state; mode = Tls.Tls13.Psk_dhe_ke; early_data = Some "early!" })
  in
  let sr = expect_ok (Tls.Tls13.handle_client_hello server ~now:1000 ch) in
  Alcotest.(check bool) "resumed" true sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_psk_accepted;
  let recorded_app =
    Tls.Tls13.protect
      ~traffic_secret:sr.Tls.Tls13.sr_secrets.Tls.Tls13.client_app_traffic
      "password=456"
  in
  let find_stek name =
    Tls.Stek_manager.find_for_decrypt server.Tls.Tls13.sc.Tls.Tls13.stek_manager ~now:2000 name
  in
  let outcome = Tls.Tls13.attack ~find_stek ~ch ~sh:sr.Tls.Tls13.sr_hello ~recorded_app in
  (* Early data falls in both modes... *)
  (match outcome.Tls.Tls13.early_data with
  | Some (Ok plain) -> Alcotest.(check string) "0-RTT falls" "early!" plain
  | Some (Error e) -> Alcotest.fail ("early data should decrypt: " ^ e)
  | None -> Alcotest.fail "no early data in capture");
  (* ...but the resumed connection's application data survives psk_dhe_ke. *)
  match outcome.Tls.Tls13.app_data with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "psk_dhe_ke app data must not decrypt from the STEK alone"

(* Property: arbitrary chains of resumption (modes drawn at random, each
   leg reusing the previous leg's fresh ticket) keep both sides agreed on
   every traffic secret. *)
let prop_resumption_chains =
  QCheck2.Test.make ~name:"resumption chains stay consistent" ~count:40
    QCheck2.Gen.(pair small_int (list_size (int_range 1 6) bool))
    (fun (salt, modes) ->
      let server = make_server () in
      let rng = Crypto.Rng.create ~seed:(Printf.sprintf "chain-%d" salt) in
      match Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13 with
      | Error _ -> false
      | Ok (_, first) ->
          let now = ref 200 in
          let rec go (prev : Tls.Tls13.client_result) = function
            | [] -> true
            | dhe :: rest -> (
                match prev.Tls.Tls13.cl_new_ticket with
                | None -> false
                | Some (ticket, state) -> (
                    now := !now + 600;
                    let mode = if dhe then Tls.Tls13.Psk_dhe_ke else Tls.Tls13.Psk_ke in
                    match
                      Tls.Tls13.connect ~client_rng:rng server ~now:!now
                        ~offer:(Tls.Tls13.Resume13 { ticket; state; mode; early_data = None })
                    with
                    | Error _ -> false
                    | Ok (sr, cl) ->
                        cl.Tls.Tls13.cl_resumed
                        && String.equal
                             sr.Tls.Tls13.sr_secrets.Tls.Tls13.server_app_traffic
                             cl.Tls.Tls13.cl_secrets.Tls.Tls13.server_app_traffic
                        && go cl rest))
          in
          go first modes)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "tls13"
    [
      ( "hkdf",
        [
          Alcotest.test_case "rfc5869 case 1" `Quick test_hkdf_case1;
          Alcotest.test_case "rfc5869 case 3" `Quick test_hkdf_case3;
          Alcotest.test_case "expand_label" `Quick test_expand_label_shape;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "fresh" `Quick test_fresh_handshake;
          Alcotest.test_case "psk_ke resumption" `Quick test_psk_ke_resumption;
          Alcotest.test_case "psk_dhe_ke resumption" `Quick test_psk_dhe_ke_resumption;
          Alcotest.test_case "0-rtt" `Quick test_zero_rtt;
          Alcotest.test_case "0-rtt disabled" `Quick test_zero_rtt_disabled;
          Alcotest.test_case "psk expiry" `Quick test_psk_expiry;
          Alcotest.test_case "mode restriction" `Quick test_mode_restriction;
          Alcotest.test_case "binder required" `Quick test_binder_required;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "psk_ke falls to stolen stek" `Quick test_attack_psk_ke;
          Alcotest.test_case "psk_dhe_ke protects app data" `Quick test_attack_psk_dhe_ke;
        ] );
      qsuite "properties" [ prop_resumption_chains ];
    ]
