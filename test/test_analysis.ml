(* Tests for the analysis library: statistics, union-find, lifetime
   spans, service grouping, the vulnerability-window model, rank tiers,
   and the text renderers — mostly on synthetic inputs with known
   answers. *)

module St = Analysis.Stats

let pt ?(w = 1.0) v = { St.value = v; weight = w }

(* --- Stats ----------------------------------------------------------------- *)

let test_fraction () =
  let points = [ pt 1.0; pt 2.0; pt ~w:2.0 3.0 ] in
  Alcotest.(check (float 1e-9)) "weighted fraction" 0.75 (St.fraction points (fun v -> v >= 2.0));
  Alcotest.(check (float 1e-9)) "empty" 0.0 (St.fraction [] (fun _ -> true))

let test_cdf () =
  let c = St.cdf [ pt 1.0; pt 2.0; pt 2.0; pt 4.0 ] in
  Alcotest.(check (float 1e-9)) "below all" 0.0 (St.cdf_at c 0.5);
  Alcotest.(check (float 1e-9)) "at 1" 0.25 (St.cdf_at c 1.0);
  Alcotest.(check (float 1e-9)) "at 2" 0.75 (St.cdf_at c 2.0);
  Alcotest.(check (float 1e-9)) "at max" 1.0 (St.cdf_at c 4.0);
  Alcotest.(check (float 1e-9)) "beyond" 1.0 (St.cdf_at c 100.0)

let test_percentile_median () =
  let points = List.init 100 (fun i -> pt (float_of_int (i + 1))) in
  Alcotest.(check (float 1.0)) "median" 50.0 (St.median points);
  Alcotest.(check (float 1.0)) "p90" 90.0 (St.percentile points 0.9);
  (* Weighted: one heavy point dominates. *)
  Alcotest.(check (float 1e-9)) "weighted median" 7.0 (St.median [ pt 1.0; pt ~w:10.0 7.0 ])

let test_histogram () =
  let buckets = St.histogram ~bounds:[ 1.0; 5.0 ] [ pt 0.5; pt 1.0; pt 3.0; pt 10.0; pt 6.0 ] in
  Alcotest.(check (float 1e-9)) "first" 2.0 buckets.(0);
  Alcotest.(check (float 1e-9)) "second" 1.0 buckets.(1);
  Alcotest.(check (float 1e-9)) "overflow" 2.0 buckets.(2)

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"cdf is monotone and ends at 1" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.0 1000.0))
    (fun values ->
      let c = St.cdf (List.map pt values) in
      let fractions = List.map snd c in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      monotone fractions
      && abs_float (List.fold_left (fun _ f -> f) 0.0 fractions -. 1.0) < 1e-9)

let test_duration_format () =
  Alcotest.(check string) "seconds" "45s" (St.duration_to_string 45.0);
  Alcotest.(check string) "minutes" "5m" (St.duration_to_string 300.0);
  Alcotest.(check string) "hours" "18h" (St.duration_to_string (18.0 *. 3600.0));
  Alcotest.(check string) "days" "63d" (St.duration_to_string (63.0 *. 86400.0))

(* --- Union-find ----------------------------------------------------------------- *)

let test_union_find () =
  let uf = Scanner.Union_find.create () in
  Scanner.Union_find.union uf "a" "b";
  Scanner.Union_find.union uf "b" "c";
  Scanner.Union_find.union uf "x" "y";
  Scanner.Union_find.add uf "lonely";
  Alcotest.(check bool) "transitive" true (Scanner.Union_find.connected uf "a" "c");
  Alcotest.(check bool) "separate" false (Scanner.Union_find.connected uf "a" "x");
  let groups = Scanner.Union_find.groups uf in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  Alcotest.(check int) "largest first" 3 (List.length (List.hd groups))

let prop_union_find_partition =
  QCheck2.Test.make ~name:"union-find groups partition the elements" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 15) (int_range 0 15)))
    (fun pairs ->
      let uf = Scanner.Union_find.create () in
      List.iter
        (fun (a, b) ->
          Scanner.Union_find.union uf (string_of_int a) (string_of_int b))
        pairs;
      let groups = Scanner.Union_find.groups uf in
      let all = List.concat groups in
      List.length all = List.length (List.sort_uniq compare all))

(* --- Lifetime spans -------------------------------------------------------------- *)

let mk_day ~day ?stek ?dhe ?ecdhe () =
  {
    Scanner.Daily_scan.day;
    present = true;
    default_ok = true;
    stek_id = stek;
    ticket_hint = None;
    ecdhe_value = ecdhe;
    dhe_ok = dhe <> None;
    dhe_value = dhe;
  }

let mk_series ~domain days =
  {
    Scanner.Daily_scan.domain;
    rank = 10;
    weight = 1.0;
    trusted = true;
    stable = true;
    days = Array.of_list days;
  }

let test_spans_basic () =
  (* The same STEK seen on days 0, 2 and 5 (with a gap) spans 6 days. *)
  let series =
    mk_series ~domain:"gap.example"
      [
        mk_day ~day:0 ~stek:"k1" ();
        mk_day ~day:1 ();
        mk_day ~day:2 ~stek:"k1" ();
        mk_day ~day:3 ~stek:"other" ();
        mk_day ~day:4 ();
        mk_day ~day:5 ~stek:"k1" ();
      ]
  in
  let s = Analysis.Lifetime.spans_of_series ~field:Analysis.Lifetime.Stek series in
  Alcotest.(check int) "span absorbs jitter" 6 s.Analysis.Lifetime.max_span_days;
  Alcotest.(check int) "distinct values" 2 s.Analysis.Lifetime.distinct_values;
  Alcotest.(check int) "observed days" 4 s.Analysis.Lifetime.observed_days

let test_spans_daily_change () =
  let series =
    mk_series ~domain:"rotate.example"
      (List.init 5 (fun i -> mk_day ~day:i ~stek:(Printf.sprintf "k%d" i) ()))
  in
  let s = Analysis.Lifetime.spans_of_series ~field:Analysis.Lifetime.Stek series in
  Alcotest.(check int) "daily change" 1 s.Analysis.Lifetime.max_span_days

let test_spans_never () =
  let series = mk_series ~domain:"never.example" [ mk_day ~day:0 (); mk_day ~day:1 () ] in
  let s = Analysis.Lifetime.spans_of_series ~field:Analysis.Lifetime.Stek series in
  Alcotest.(check int) "never observed" 0 s.Analysis.Lifetime.max_span_days

let test_summarize_and_top () =
  let spans =
    [
      { Analysis.Lifetime.domain = "a"; rank = 500; weight = 2.0; trusted = true; stable = true; observed_days = 9; distinct_values = 1; max_span_days = 63 };
      { Analysis.Lifetime.domain = "b"; rank = 3; weight = 1.0; trusted = true; stable = true; observed_days = 9; distinct_values = 9; max_span_days = 1 };
      { Analysis.Lifetime.domain = "c"; rank = 90; weight = 1.0; trusted = true; stable = true; observed_days = 9; distinct_values = 2; max_span_days = 8 };
      { Analysis.Lifetime.domain = "d"; rank = 7; weight = 1.0; trusted = true; stable = true; observed_days = 0; distinct_values = 0; max_span_days = 0 };
    ]
  in
  (* Figure 3's population: every domain, the never-observed at 0 days. *)
  let points = Analysis.Lifetime.span_points ~include_unobserved:true spans in
  let weight pred =
    Analysis.Stats.total_weight (List.filter (fun p -> pred p.Analysis.Stats.value) points)
  in
  Alcotest.(check (float 1e-9)) "population" 5.0 (Analysis.Stats.total_weight points);
  Alcotest.(check (float 1e-9)) "never" 1.0 (weight (fun v -> v = 0.));
  Alcotest.(check (float 1e-9)) "7d+" 3.0 (weight (fun v -> v >= 7.));
  Alcotest.(check (float 1e-9)) "30d+" 2.0 (weight (fun v -> v >= 30.));
  Alcotest.(check int) "completed only by default" 3
    (List.length (Analysis.Lifetime.span_points spans));
  let top = Analysis.Lifetime.top_reusers ~min_days:7 ~limit:10 spans in
  Alcotest.(check (list string)) "ordered by rank" [ "c"; "a" ]
    (List.map (fun (x : Analysis.Lifetime.domain_spans) -> x.Analysis.Lifetime.domain) top)

(* --- Vulnerability windows --------------------------------------------------------- *)

let test_window_combination () =
  let day = 86_400 in
  let mk c = Analysis.Vuln_window.combine ~domain:"x" ~rank:1 ~weight:1.0 c in
  (* Ticket STEK span dominates. *)
  let w =
    mk
      {
        Analysis.Vuln_window.session_id_honored = 300;
        ticket_honored = 180;
        stek_span_days = 30;
        dhe_span_days = 0;
        ecdhe_span_days = 3;
      }
  in
  Alcotest.(check int) "stek window" (30 * day) w.Analysis.Vuln_window.seconds;
  Alcotest.(check string) "dominant mechanism" "session-ticket" w.Analysis.Vuln_window.dominant;
  (* Daily STEK rotation: the ticket window falls back to the honored
     acceptance time, and the session cache wins. *)
  let w =
    mk
      {
        Analysis.Vuln_window.session_id_honored = 36_000;
        ticket_honored = 180;
        stek_span_days = 1;
        dhe_span_days = 0;
        ecdhe_span_days = 0;
      }
  in
  Alcotest.(check int) "cache window" 36_000 w.Analysis.Vuln_window.seconds;
  Alcotest.(check string) "cache dominant" "session-cache" w.Analysis.Vuln_window.dominant;
  (* Nothing held: window 0. *)
  let w =
    mk
      {
        Analysis.Vuln_window.session_id_honored = 0;
        ticket_honored = 0;
        stek_span_days = 0;
        dhe_span_days = 0;
        ecdhe_span_days = 0;
      }
  in
  Alcotest.(check int) "no exposure" 0 w.Analysis.Vuln_window.seconds

let test_window_summary () =
  let day = 86_400 in
  let mk seconds weight =
    { Analysis.Vuln_window.domain = "x"; rank = 1; weight; seconds; dominant = "m" }
  in
  let windows = [ mk 300 5.0; mk (2 * day) 3.0; mk (10 * day) 1.0; mk (40 * day) 1.0 ] in
  let s = Analysis.Vuln_window.summarize windows in
  Alcotest.(check (float 1e-9)) "population" 10.0 s.Analysis.Vuln_window.population;
  Alcotest.(check (float 1e-9)) "over 24h" 5.0 s.Analysis.Vuln_window.over_24h;
  Alcotest.(check (float 1e-9)) "over 7d" 2.0 s.Analysis.Vuln_window.over_7d;
  Alcotest.(check (float 1e-9)) "over 30d" 1.0 s.Analysis.Vuln_window.over_30d

(* --- Rank buckets --------------------------------------------------------------------- *)

let test_rank_buckets () =
  let mk rank span =
    { Analysis.Lifetime.domain = Printf.sprintf "r%d" rank; rank; weight = 1.0; trusted = true; stable = true; observed_days = 5; distinct_values = 1; max_span_days = span }
  in
  let spans = [ mk 50 1; mk 80 40; mk 5000 1; mk 500_000 8 ] in
  let tiers = Analysis.Rank_buckets.analyze spans in
  let top100 = List.hd tiers in
  Alcotest.(check int) "top100 issuers" 2 top100.Analysis.Rank_buckets.sampled_issuers;
  Alcotest.(check (float 1e-9)) "top100 30d share" 0.5 top100.Analysis.Rank_buckets.share_30d_plus;
  let top1m = List.nth tiers 4 in
  Alcotest.(check int) "top1m cumulative" 4 top1m.Analysis.Rank_buckets.sampled_issuers

(* --- Treemap / report -------------------------------------------------------------------- *)

let test_treemap_classes () =
  Alcotest.(check string) "under 1d" "<1d"
    (Analysis.Treemap.class_label (Analysis.Treemap.classify_days 1.0));
  Alcotest.(check string) "week" "1-7d"
    (Analysis.Treemap.class_label (Analysis.Treemap.classify_days 3.0));
  Alcotest.(check string) "month" "7-30d"
    (Analysis.Treemap.class_label (Analysis.Treemap.classify_days 10.0));
  Alcotest.(check string) "long" ">=30d"
    (Analysis.Treemap.class_label (Analysis.Treemap.classify_days 63.0))

let test_report_table () =
  let text =
    Analysis.Report.table ~headers:[ "name"; "n" ] ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "header + separator + rows" 4 (List.length lines);
  (* Every line has equal width. *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "empty table"

let test_ascii_cdf_smoke () =
  let c = St.cdf [ pt 1.0; pt 10.0; pt 100.0 ] in
  let text = Analysis.Report.ascii_cdf ~ticks:[ (1.0, "1"); (10.0, "10"); (100.0, "100") ] c in
  Alcotest.(check bool) "mentions full height" true
    (String.length text > 0 && String.sub text 0 4 = "100%")

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "analysis"
    [
      ( "stats",
        [
          Alcotest.test_case "fraction" `Quick test_fraction;
          Alcotest.test_case "cdf" `Quick test_cdf;
          Alcotest.test_case "percentile/median" `Quick test_percentile_median;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "duration format" `Quick test_duration_format;
        ] );
      qsuite "stats-properties" [ prop_cdf_monotone ];
      ( "union-find",
        [ Alcotest.test_case "basics" `Quick test_union_find ] );
      qsuite "union-find-properties" [ prop_union_find_partition ];
      ( "lifetime",
        [
          Alcotest.test_case "span absorbs jitter" `Quick test_spans_basic;
          Alcotest.test_case "daily change" `Quick test_spans_daily_change;
          Alcotest.test_case "never observed" `Quick test_spans_never;
          Alcotest.test_case "summary and top reusers" `Quick test_summarize_and_top;
        ] );
      ( "vuln-window",
        [
          Alcotest.test_case "combination" `Quick test_window_combination;
          Alcotest.test_case "summary" `Quick test_window_summary;
        ] );
      ( "rank-buckets",
        [ Alcotest.test_case "tiers" `Quick test_rank_buckets ] );
      ( "render",
        [
          Alcotest.test_case "treemap classes" `Quick test_treemap_classes;
          Alcotest.test_case "table alignment" `Quick test_report_table;
          Alcotest.test_case "ascii cdf" `Quick test_ascii_cdf_smoke;
        ] );
    ]
