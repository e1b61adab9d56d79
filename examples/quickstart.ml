(* Quickstart: build a small simulated Internet, scan it, and print a
   compact "security harm" summary — the library's core loop in ~60
   lines.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. A world: a sampled Top Million with calibrated operator
     behaviour. Small and fast here; scale [n_domains] up for fidelity. *)
  let config =
    {
      Tlsharm.Study.default_config with
      Tlsharm.Study.world_config =
        { Simnet.World.default_config with Simnet.World.n_domains = 2000 };
      campaign_days = 21 (* three weeks instead of nine, for speed *);
      verbose = true;
    }
  in
  let study = Tlsharm.Study.create ~config () in

  (* 2. One figure: how long do servers keep honoring session tickets? *)
  print_endline (Tlsharm.Experiments.fig2 study);

  (* 3. The longitudinal campaign: STEK lifetimes (the paper's headline
     per-mechanism result). *)
  print_endline (Tlsharm.Experiments.fig3 study);

  (* 4. Who shares secrets with whom: the biggest STEK service groups. *)
  print_endline (Tlsharm.Experiments.table6 study);

  (* 5. The bottom line: combined vulnerability windows (Figure 8). *)
  print_endline (Tlsharm.Experiments.fig8 study);

  (* 6. Programmatic access to the same results. *)
  let windows = Tlsharm.Study.vulnerability_windows study in
  let summary = Analysis.Vuln_window.summarize windows in
  Printf.printf
    "\nProgrammatic summary: %.0f weighted domains participated; %.1f%% are exposed for\n\
     more than a day after a 'forward secret' connection ends.\n\n"
    summary.Analysis.Vuln_window.population
    (100.0
    *. summary.Analysis.Vuln_window.over_24h
    /. summary.Analysis.Vuln_window.population);

  (* 7. The per-domain view: grade individual sites' shortcut posture. *)
  let world = Tlsharm.Study.world study in
  List.iter
    (fun domain -> print_endline (Tlsharm.Posture.report (Tlsharm.Posture.assess world ~domain)))
    [ "yahoo.com"; "google.com" ]
