(* Robustness ("fuzz-lite") tests: random and mutated byte strings thrown
   at every parser in the system must produce clean [Error]s — never
   uncaught exceptions, never crashes. A scanner that falls over on a
   malformed ServerHello is useless on the real Internet, so these
   invariants matter beyond tidiness. *)

let rng = Crypto.Rng.create ~seed:"fuzz"

let random_bytes_gen =
  QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 300))

(* A parser is "total" if it returns a result (never raises) on arbitrary
   bytes. *)
let total name parse =
  QCheck2.Test.make ~name ~count:500 random_bytes_gen (fun s ->
      match parse s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))

let prop_handshake_total = total "handshake parser total" Tls.Handshake_msg.of_bytes
let prop_flight_total = total "flight parser total" Tls.Handshake_msg.read_all
let prop_record_total = total "record parser total" Tls.Record.of_bytes
let prop_records_total = total "record stream parser total" Tls.Record.read_all
let prop_cert_total = total "certificate parser total" Tls.Cert.of_bytes
let prop_session_total = total "session parser total" Tls.Session.of_bytes

let prop_ticket_total =
  let stek = Tls.Stek.generate rng ~now:0 in
  let find_stek name = if String.equal name (Tls.Stek.key_name stek) then Some stek else None in
  total "ticket unsealer total" (fun s ->
      match Tls.Ticket.unseal ~find_stek s with Ok v -> Ok v | Error e -> Error e)

let prop_psk_total =
  let stek = Tls.Stek.generate rng ~now:0 in
  let find_stek name = if String.equal name (Tls.Stek.key_name stek) then Some stek else None in
  total "tls13 psk unsealer total" (Tls.Tls13.unseal_psk ~find_stek)

let prop_campaign_row_total =
  QCheck2.Test.make ~name:"campaign CSV row parser total" ~count:300
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))
    (fun s ->
      match Scanner.Observation.of_csv_row s with
      | Some _ | None -> true
      | exception e -> QCheck2.Test.fail_reportf "csv raised %s" (Printexc.to_string e))

(* --- Mutation fuzzing: valid messages with bytes flipped -------------------- *)

let valid_client_hello =
  Tls.Handshake_msg.to_bytes
    (Tls.Handshake_msg.Client_hello
       {
         ch_version = Tls.Types.TLS_1_2;
         ch_random = Crypto.Rng.generate rng 32;
         ch_session_id = Crypto.Rng.generate rng 16;
         ch_cipher_suites = [ 0xffa1; 0xffa2 ];
         ch_extensions =
           [ Tls.Extension.Server_name "fuzz.example"; Tls.Extension.Session_ticket "" ];
       })

let mutate base (pos, value) =
  let b = Bytes.of_string base in
  if Bytes.length b = 0 then base
  else begin
    Bytes.set b (pos mod Bytes.length b) (Char.chr (value land 0xff));
    Bytes.to_string b
  end

let prop_mutated_hello_total =
  QCheck2.Test.make ~name:"mutated ClientHello never crashes the parser" ~count:1000
    QCheck2.Gen.(pair small_nat (int_range 0 255))
    (fun mutation ->
      match Tls.Handshake_msg.of_bytes (mutate valid_client_hello mutation) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "mutated hello raised %s" (Printexc.to_string e))

(* Mutated hellos also must not crash the *server engine*. *)
let fuzz_env = Tls.Config.sim_env ()

let fuzz_server =
  let r = Crypto.Rng.create ~seed:"fuzz-server" in
  let ca =
    Tls.Cert.self_signed ~curve:fuzz_env.Tls.Config.pki_curve ~name:"Fuzz CA" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 r
  in
  let key = Crypto.Ecdsa.gen_keypair fuzz_env.Tls.Config.pki_curve r in
  let cert =
    Tls.Cert.issue ca ~curve:fuzz_env.Tls.Config.pki_curve ~subject:"fuzz.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes fuzz_env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      r
  in
  Tls.Server.create
    ~config:
      {
        Tls.Config.env = fuzz_env;
        suites = Tls.Types.all_cipher_suites;
        issue_session_ids = true;
        session_cache = Some (Tls.Session_cache.create ~lifetime:300 ~capacity:100);
        tickets =
          Some
            {
              Tls.Config.stek_manager =
                Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"f" ~now:0;
              lifetime_hint = 300;
              accept_lifetime = 300;
              reissue_on_resumption = true;
            };
        kex_cache = Tls.Kex_cache.create ();
        cert_chain = [ cert ];
        cert_key = key;
      }
    ~rng:(Crypto.Rng.create ~seed:"fuzz-server-rng")

let prop_server_survives_mutated_hello =
  QCheck2.Test.make ~name:"server engine survives mutated hellos" ~count:300
    QCheck2.Gen.(pair small_nat (int_range 0 255))
    (fun mutation ->
      match Tls.Handshake_msg.read_all (mutate valid_client_hello mutation) with
      | Error _ | Ok ([] | _ :: _ :: _) -> true (* parser rejected it before the engine saw it *)
      | Ok [ hello ] -> (
          match Tls.Server.handle_client_hello fuzz_server ~now:100 hello with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "server raised %s" (Printexc.to_string e)))

(* Garbage client key exchanges against a live pending handshake. *)
let prop_server_survives_garbage_cke =
  QCheck2.Test.make ~name:"server engine survives garbage CKE flights" ~count:200
    random_bytes_gen
    (fun garbage ->
      let client =
        Tls.Client.create
          ~config:
            {
              Tls.Config.cl_env = fuzz_env;
              offer_suites = Tls.Types.all_cipher_suites;
              offer_ticket = true;
              root_store = Tls.Cert.empty_store ();
              check_certs = false;
              evaluate_trust = false;
              verify_ske = false;
            }
          ~rng:(Crypto.Rng.create ~seed:"fuzz-client") ()
      in
      let ch, _state = Tls.Client.hello client ~now:100 ~hostname:"fuzz.example" ~offer:Tls.Client.Fresh in
      match Tls.Server.handle_client_hello fuzz_server ~now:100 ch with
      | Error _ -> true
      | Ok (Tls.Server.Resuming _) -> true
      | Ok (Tls.Server.Negotiating (_, pending)) -> (
          let flight =
            List.map Tls.Handshake_msg.frame
              [ Tls.Handshake_msg.Client_key_exchange garbage;
                Tls.Handshake_msg.Finished (String.make 12 'x') ]
          in
          match Tls.Server.handle_client_flight pending ~now:100 flight with
          | Ok _ -> false (* a garbage CKE must never complete a handshake *)
          | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "server raised %s" (Printexc.to_string e)))

(* --- The structure-aware wire fuzzer (Faults.Fuzz) -------------------- *)

(* A scaled-down run of the CI fuzz gate: every drive must end in a
   typed verdict with bounded allocation. The full 100k-input run lives
   in `tlsharm fuzz`; this keeps the invariant under `dune runtest`. *)
let test_fuzz_run_clean () =
  let r = Faults.Fuzz.run ~seed:"test-fuzz" ~count:3000 () in
  Alcotest.(check int) "executed all drives" 3000 r.Faults.Fuzz.executed;
  Alcotest.(check int)
    "every drive got a verdict" 3000
    (r.Faults.Fuzz.parsed + r.Faults.Fuzz.rejected);
  (match r.Faults.Fuzz.escapes with
  | [] -> ()
  | e :: _ -> Alcotest.failf "escaped input:\n%s" (Faults.Fuzz.render_escape e));
  Alcotest.(check bool)
    "both verdicts occur" true
    (r.Faults.Fuzz.parsed > 0 && r.Faults.Fuzz.rejected > 0);
  List.iter
    (fun (name, n) ->
      if n = 0 then Alcotest.failf "target %s never driven" name)
    r.Faults.Fuzz.by_target

let test_fuzz_deterministic () =
  let a = Faults.Fuzz.run ~seed:"det-check" ~count:400 () in
  let b = Faults.Fuzz.run ~seed:"det-check" ~count:400 () in
  Alcotest.(check int) "parsed stable" a.Faults.Fuzz.parsed b.Faults.Fuzz.parsed;
  Alcotest.(check (list (pair string int)))
    "per-target counts stable" a.Faults.Fuzz.by_target b.Faults.Fuzz.by_target;
  let c = Faults.Fuzz.run ~seed:"det-check-2" ~count:400 () in
  Alcotest.(check bool)
    "seed changes the schedule" true
    (c.Faults.Fuzz.parsed <> a.Faults.Fuzz.parsed
    || c.Faults.Fuzz.by_target <> a.Faults.Fuzz.by_target)

let test_hex_dump_roundtrippable () =
  let s = "\x00\x01ab\xff\x7f" in
  let dump = Faults.Fuzz.hex_dump s in
  (* Offset, every byte in hex, printable ASCII gutter. *)
  Alcotest.(check bool) "has offset" true (String.length dump > 0);
  List.iter
    (fun hexpair ->
      if
        not
          (let re = hexpair in
           let rec find i =
             i + String.length re <= String.length dump
             && (String.sub dump i (String.length re) = re || find (i + 1))
           in
           find 0)
      then Alcotest.failf "hex dump missing %s:\n%s" hexpair dump)
    [ "00"; "01"; "61"; "62"; "ff"; "7f" ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "fuzz"
    [
      qsuite "parsers-total"
        [
          prop_handshake_total;
          prop_flight_total;
          prop_record_total;
          prop_records_total;
          prop_cert_total;
          prop_session_total;
          prop_ticket_total;
          prop_psk_total;
          prop_campaign_row_total;
        ];
      qsuite "mutation"
        [
          prop_mutated_hello_total;
          prop_server_survives_mutated_hello;
          prop_server_survives_garbage_cke;
        ];
      ( "wire-fuzzer",
        [
          Alcotest.test_case "no escapes on a 3k-drive run" `Quick test_fuzz_run_clean;
          Alcotest.test_case "same seed, same report" `Quick test_fuzz_deterministic;
          Alcotest.test_case "hex dump covers every byte" `Quick
            test_hex_dump_roundtrippable;
        ] );
    ]
