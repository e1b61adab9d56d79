(* The paper's headline numbers, checked on a reduced world: 1,500
   domains and a 35-day campaign at the default seed. Every target of
   {!Tlsharm.Paper} must measure within its model tolerance plus three
   Horvitz-Thompson standard errors of the paper's value; the SE, not a
   hand-set margin, widens the band for the small world. *)

open Helpers

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
        (Printf.sprintf "%s %s reachable in 35 days" t.Tlsharm.Paper.experiment t.Tlsharm.Paper.metric)
        true (Tlsharm.Paper.reachable r);
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

(* A horizon longer than the campaign renders n/a, not FAIL: an 8-day
   campaign's 0% for "30+ days" says nothing about the model. *)
let test_out_of_reach () =
  let module P = Tlsharm.Paper in
  let zero = { Analysis.Stats.share = 0.0; se = 0.0 } in
  let verdict ~campaign_days experiment metric =
    let target = List.find (fun t -> t.P.experiment = experiment && t.P.metric = metric) P.targets in
    P.render [ { P.target; measured = zero; campaign_days } ]
  in
  List.iter
    (fun (experiment, metric, needs) ->
      let short = verdict ~campaign_days:(needs - 1) experiment metric in
      Alcotest.(check bool) (metric ^ ": n/a one day short") true
        (contains short (Printf.sprintf "n/a (needs >=%d d)" needs) && not (contains short "FAIL"));
      Alcotest.(check bool) (metric ^ ": FAIL once reachable") true
        (contains (verdict ~campaign_days:needs experiment metric) "FAIL"))
    [
      ("f3", "same STEK for 30+ days", 30);
      ("f8", "window > 7 days", 8);
      ("f8", "window > 30 days", 31);
      ("f3", "same STEK for 7+ days", 7);
    ]

let () =
  Alcotest.run "paper"
    [
      ( "paper",
        [
          Alcotest.test_case "ht_share by hand" `Quick test_ht_share;
          Alcotest.test_case "horizons past the campaign are n/a" `Quick test_out_of_reach;
          Alcotest.test_case "headline targets on a reduced world" `Slow test_headline;
        ] );
    ]
