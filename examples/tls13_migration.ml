(* What TLS 1.3 changes — and doesn't — about the paper's findings
   (sections 2.4 and 8.1), demonstrated concretely with the real RFC 8446
   key schedule:

   1. a psk_ke resumption is recorded; the STEK leaks; everything
      decrypts, exactly like a 1.2 ticket;
   2. a psk_dhe_ke resumption is recorded; the STEK leaks; the 1-RTT
      application data survives — but the 0-RTT early data still falls;
   3. the ecosystem-level projection of the measured study under both
      modes.

     dune exec examples/tls13_migration.exe *)

let day = 86_400

let () =
  let env = Tls.Config.sim_env () in
  let curve = env.Tls.Config.ecdhe_curve in
  let stek_manager =
    (* The operational sin under study: a never-rotated ticket key. *)
    Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"prod-key-file" ~now:0
  in
  let server =
    Tls.Tls13.server
      ~config:
        {
          Tls.Tls13.curve;
          stek_manager;
          psk_lifetime = 7 * day (* the draft-15 cap the paper critiques *);
          allowed_modes = [ Tls.Tls13.Psk_ke; Tls.Tls13.Psk_dhe_ke ];
          max_early_data = 16_384;
        }
      ~rng:(Crypto.Rng.create ~seed:"t13-server")
  in
  let rng = Crypto.Rng.create ~seed:"t13-client" in

  (* Bootstrap: a fresh handshake yields the first PSK ticket. *)
  let _, first =
    match Tls.Tls13.connect ~client_rng:rng server ~now:100 ~offer:Tls.Tls13.Fresh13 with
    | Ok r -> r
    | Error e -> failwith e
  in
  let ticket, state = Option.get first.Tls.Tls13.cl_new_ticket in
  let find_stek name = Tls.Stek_manager.find_for_decrypt stek_manager ~now:999_999 name in

  let run_mode mode label =
    Printf.printf "== %s ==\n" label;
    (* The wire message the passive observer records; the user's first
       request rides in it as 0-RTT data, before the handshake ends. *)
    let ch, _ =
      Tls.Tls13.hello ~curve ~rng
        (Tls.Tls13.Resume13 { ticket; state; mode; early_data = Some "GET /inbox (0-RTT)" })
    in
    match Tls.Tls13.handle_client_hello server ~now:500 ch with
    | Error e -> Printf.printf "handshake failed: %s\n" e
    | Ok sr ->
        let recorded_app =
          Tls.Tls13.protect
            ~traffic_secret:sr.Tls.Tls13.sr_secrets.Tls.Tls13.client_app_traffic
            "POST /password-change new=hunter3"
        in
        Printf.printf "resumed: %b; observer recorded CH, SH, 0-RTT and 1-RTT ciphertext\n"
          sr.Tls.Tls13.sr_resumed;
        let outcome = Tls.Tls13.attack ~find_stek ~ch ~sh:sr.Tls.Tls13.sr_hello ~recorded_app in
        (match outcome.Tls.Tls13.early_data with
        | Some (Ok plain) -> Printf.printf "  stolen STEK vs 0-RTT data:  DECRYPTED %S\n" plain
        | Some (Error e) -> Printf.printf "  stolen STEK vs 0-RTT data:  failed (%s)\n" e
        | None -> ());
        (match outcome.Tls.Tls13.app_data with
        | Ok plain -> Printf.printf "  stolen STEK vs 1-RTT data:  DECRYPTED %S\n" plain
        | Error e -> Printf.printf "  stolen STEK vs 1-RTT data:  safe (%s)\n" e);
        print_newline ()
  in
  run_mode Tls.Tls13.Psk_ke "psk_ke resumption (the 1.2-ticket semantics carried forward)";
  run_mode Tls.Tls13.Psk_dhe_ke "psk_dhe_ke resumption (fresh DH under the PSK)";

  (* The ecosystem projection: run a small study and re-evaluate Figure 8
     under 1.3 semantics. *)
  print_endline "Running a small measurement study for the ecosystem projection...";
  let study =
    Tlsharm.Study.create
      ~config:
        {
          Tlsharm.Study.default_config with
          Tlsharm.Study.world_config =
            { Simnet.World.default_config with Simnet.World.n_domains = 2000 };
          campaign_days = 21;
          verbose = true;
        }
      ()
  in
  print_endline (Tlsharm.Tls13_projection.report study)
