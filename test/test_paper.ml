(* The paper's headline numbers, checked on a reduced world: 1,500
   domains and a 35-day campaign at the default seed. Every target of
   {!Tlsharm.Paper} must measure within its model tolerance plus three
   Horvitz-Thompson standard errors of the paper's value; the SE, not a
   hand-set margin, widens the band for the small world. *)

let study () =
  let world_config = { Simnet.World.default_config with Simnet.World.n_domains = 1500 } in
  Tlsharm.Study.create
    ~config:{ Tlsharm.Study.default_config with Tlsharm.Study.world_config; campaign_days = 35 }
    ()

let test_headline () =
  let results = Tlsharm.Paper.measure (study ()) Tlsharm.Paper.targets in
  print_string (Tlsharm.Paper.render results);
  Alcotest.(check int) "every target measured" (List.length Tlsharm.Paper.targets) (List.length results);
  List.iter
    (fun (r : Tlsharm.Paper.result) ->
      let t = r.Tlsharm.Paper.target in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %.4f vs paper %.4f within %.4f" t.Tlsharm.Paper.experiment
           t.Tlsharm.Paper.metric r.Tlsharm.Paper.measured.Analysis.Stats.share t.Tlsharm.Paper.paper
           (Tlsharm.Paper.band r))
        true (Tlsharm.Paper.passes r))
    results

(* The estimator against hand-computed values: certainty units add no
   variance, and stratum units outside the population are zero
   residuals. *)
let test_ht_share () =
  let module St = Analysis.Stats in
  let design = { St.tail_sampled = 4; tail_weight = 10.0 } in
  let certain = List.init 3 (fun i -> { St.value = float_of_int (i mod 2); weight = 1.0 }) in
  let e = St.ht_share design certain (fun v -> v > 0.5) in
  Alcotest.(check (float 1e-12)) "certainty share" (1. /. 3.) e.St.share;
  Alcotest.(check (float 1e-12)) "certainty has no SE" 0.0 e.St.se;
  (* Two tail units in the population, one hit: share 1/2, residuals
     (1/2, -1/2, 0, 0), s^2 = 1/6, N = 40, Var = 40^2 (1 - 4/40) s^2 / 4 / 20^2. *)
  let tail = [ { St.value = 1.0; weight = 10.0 }; { St.value = 0.0; weight = 10.0 } ] in
  let e = St.ht_share design tail (fun v -> v > 0.5) in
  Alcotest.(check (float 1e-12)) "tail share" 0.5 e.St.share;
  Alcotest.(check (float 1e-12)) "tail SE"
    (sqrt (1600. *. 0.9 *. (1. /. 6.) /. 4. /. 400.))
    e.St.se

let () =
  Alcotest.run "paper"
    [
      ( "paper",
        [
          Alcotest.test_case "ht_share by hand" `Quick test_ht_share;
          Alcotest.test_case "headline targets on a reduced world" `Slow test_headline;
        ] );
    ]
