(* Drive the TLS engine directly: full handshake over the record layer,
   ticket issuance and resumption, then the passive-recording attack of
   the paper played out byte by byte.

     dune exec examples/handshake_demo.exe *)

let hex_prefix s n = Wire.Hex.encode (String.sub s 0 (min n (String.length s)))

let () =
  let env = Tls.Config.sim_env () in
  let rng = Crypto.Rng.create ~seed:"demo" in

  (* A one-domain PKI. *)
  let ca =
    Tls.Cert.self_signed ~curve:env.Tls.Config.pki_curve ~name:"Demo Root" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:env.Tls.Config.pki_curve ~subject:"demo.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let stek_manager =
    Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"demo-stek" ~now:0
  in
  let server =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites = [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ];
          issue_session_ids = true;
          session_cache = Some (Tls.Session_cache.create ~lifetime:300 ~capacity:100);
          tickets =
            Some
              {
                Tls.Config.stek_manager;
                lifetime_hint = 3600;
                accept_lifetime = 3600;
                reissue_on_resumption = true;
              };
          kex_cache = Tls.Kex_cache.create ();
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Rng.create ~seed:"demo-server")
  in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = true;
          evaluate_trust = true;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"demo-client") ()
  in

  (* 1. Full handshake, with a wiretap printing the flights. *)
  print_endline "=== Full handshake (wiretapped) ===";
  let wiretap direction bytes =
    let arrow =
      match direction with
      | Tls.Engine.Client_to_server -> "C -> S"
      | Tls.Engine.Server_to_client -> "S -> C"
    in
    let names =
      match Tls.Handshake_msg.read_all bytes with
      | Ok msgs ->
          String.concat ", "
            (List.map (fun m -> Tls.Handshake_msg.message_name m.Tls.Handshake_msg.msg) msgs)
      | Error _ -> "<unparseable>"
    in
    Printf.printf "  %s  %4d bytes  [%s]\n" arrow (String.length bytes) names
  in
  let o1 = Tls.Engine.connect ~wiretap client server ~now:100 ~hostname:"demo.example" ~offer:Tls.Client.Fresh in
  assert o1.Tls.Engine.ok;
  let session = Option.get o1.Tls.Engine.session in
  Printf.printf "negotiated %s, session id %s..., master secret %s...\n"
    (Format.asprintf "%a" Tls.Types.pp_cipher_suite (Option.get o1.Tls.Engine.cipher))
    (hex_prefix o1.Tls.Engine.session_id 6)
    (hex_prefix (Tls.Session.master_secret session) 6);
  (match o1.Tls.Engine.new_ticket with
  | Some (hint, ticket) ->
      Printf.printf "ticket issued: %d bytes, lifetime hint %ds, STEK key name %s...\n"
        (String.length ticket) hint
        (hex_prefix (Option.get (Tls.Ticket.peek_key_name ticket)) 6)
  | None -> ());

  (* 2. Resume by session ID, then by ticket. *)
  print_endline "\n=== Abbreviated handshakes ===";
  let o2 =
    Tls.Engine.connect client server ~now:150 ~hostname:"demo.example"
      ~offer:(Tls.Client.Offer_session_id session)
  in
  Printf.printf "session-ID resumption: resumed=%b\n" (o2.Tls.Engine.resumed = `Via_session_id);
  let o3 =
    match o1.Tls.Engine.new_ticket with
    | Some (_, ticket) ->
        Tls.Engine.connect client server ~now:200 ~hostname:"demo.example"
          ~offer:(Tls.Client.Offer_ticket { ticket; session })
    | None -> failwith "no ticket"
  in
  Printf.printf "ticket resumption:     resumed=%b (fresh ticket reissued: %b)\n"
    (o3.Tls.Engine.resumed = `Via_ticket)
    (o3.Tls.Engine.new_ticket <> None);

  (* 3. Application data over the record layer. *)
  print_endline "\n=== Application data over the record layer ===";
  (* Both sides derive the same key block from the session. In this demo
     we know the randoms from the wiretap; here we just derive both ends
     locally to show the record layer. *)
  let keys =
    Tls.Record.derive_keys
      ~master:(Tls.Session.master_secret session)
      ~client_random:(String.make 32 'c') ~server_random:(String.make 32 's')
  in
  let tx = Tls.Record.cipher_state keys.Tls.Record.client_write in
  let rx = Tls.Record.cipher_state keys.Tls.Record.client_write in
  let records = Tls.Record.seal_application_data tx "GET /inbox HTTP/1.1" in
  List.iter
    (fun r -> Printf.printf "  record: %d bytes ciphertext+tag\n" (String.length (Tls.Record.payload r)))
    records;
  (match Tls.Record.open_application_data rx records with
  | Ok plain -> Printf.printf "  peer decrypts: %S\n" plain
  | Error a -> Format.printf "  decrypt error: %a@." Tls.Types.pp_alert a);

  (* 4. The paper's attack, end to end: record a victim, steal the STEK,
     decrypt. *)
  print_endline "\n=== Passive recording + stolen STEK ===";
  match
    Tlsharm.Attack.victim_connection ~plaintext:"PUT /diary entry=saw-nothing" client server
      ~now:300 ~hostname:"demo.example" ~offer:Tls.Client.Fresh
  with
  | Error e -> print_endline e
  | Ok recording -> (
      Printf.printf "recorded %d encrypted record(s) from the wire\n"
        (List.length recording.Tlsharm.Attack.encrypted_records);
      match Tlsharm.Attack.steal_stek_and_decrypt recording ~server ~now:9999 with
      | Ok plain -> Printf.printf "attacker decrypts with stolen STEK: %S\n" plain
      | Error e -> Printf.printf "attack failed: %s\n" e)
