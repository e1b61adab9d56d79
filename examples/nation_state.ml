(* Section 7.2 reproduced: a nation-state attacker's target analysis.

   The attacker already records TLS ciphertext in bulk; the question is
   which single secret, stolen from which operator, decrypts the most
   traffic. The paper works through Google (one STEK for everything,
   rotated every 14h, accepted 28h, fronting 9% of the Top Million's
   mail) and contrasts Yandex (one STEK, never rotated for months).

     dune exec examples/nation_state.exe *)

let () =
  let config =
    {
      Tlsharm.Study.default_config with
      Tlsharm.Study.world_config =
        { Simnet.World.default_config with Simnet.World.n_domains = 2500 };
      campaign_days = 14;
      verbose = true;
    }
  in
  let study = Tlsharm.Study.create ~config () in

  (* The external measurements an attacker would make against the
     flagship: STEK rollover cadence, acceptance window, blast radius. *)
  let analysis =
    Tlsharm.Target_analysis.analyze study ~operator:"google" ~flagship:"google.com"
  in
  print_endline (Tlsharm.Target_analysis.report analysis);

  (* The contrast case: an operator that never rotates. *)
  print_endline (Tlsharm.Target_analysis.static_stek_contrast study ~flagship:"yandex.ru");

  (* Make the decryption concrete: record a victim's connection to the
     flagship, then open it with the operator's (stolen) STEK. *)
  let world = Tlsharm.Study.world study in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = Simnet.World.env world;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Simnet.World.root_store world;
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Rng.create ~seed:"victim") ()
  in
  (* Reach the flagship's server instance through the normal resolution
     path, then wiretap a victim connection to it. *)
  let domain = Option.get (Simnet.World.find_domain world "google.com") in
  ignore domain;
  let now = Simnet.Clock.now (Simnet.World.clock world) in
  (* We need the server object itself to model the compromise; the world
     hides it, so this demo rebuilds the scenario against the shared
     Google STEK manager — which is exactly what the attacker steals. *)
  match Simnet.World.operator_stek world "google" with
  | None -> print_endline "no google STEK manager in this world?"
  | Some manager ->
      let probe_outcome =
        Simnet.World.connect world ~client ~hostname:"google.com" ~offer:Tls.Client.Fresh
      in
      (match probe_outcome with
      | Ok o when o.Tls.Engine.ok -> (
          match o.Tls.Engine.new_ticket with
          | Some (_, ticket) -> (
              (* The recorded ticket + the stolen STEK manager. *)
              let find_stek key_name =
                Tls.Stek_manager.find_for_decrypt manager ~now key_name
              in
              match Tls.Ticket.decrypt_with_stolen_stek ~find_stek ticket with
              | Ok session ->
                  Printf.printf
                    "\nStolen-STEK check against google.com: recovered the master secret of a\n\
                     recorded session (%s...) — every Google-property connection using the\n\
                     ticket extension in this key's lifetime decrypts the same way.\n"
                    (Wire.Hex.encode (String.sub (Tls.Session.master_secret session) 0 8))
              | Error e ->
                  Format.printf "unseal failed: %a@." Tls.Ticket.pp_unseal_error e)
          | None -> print_endline "google.com issued no ticket?")
      | _ -> print_endline "could not connect to google.com");
      (* How many domains' mail transits the same STEK? *)
      let ds = Simnet.World.domains world in
      let mx =
        Array.fold_left
          (fun acc d ->
            if Simnet.World.mx_points_to_google d then acc +. Simnet.World.domain_weight d
            else acc)
          0.0 ds
      in
      Printf.printf
        "\nMail blast radius: %.0f weighted Top Million domains route mail through the\n\
         operator (paper: >90,000 domains, 9.1%%) — their inbound mail sessions ride the\n\
         same stolen key.\n"
        mx
