(* One entry point per table and figure of the paper's evaluation. Each
   function runs (or reuses) the relevant experiments through {!Study},
   prints the measured rows/series next to the values the paper reports,
   and returns the formatted text. Absolute counts are weighted estimates
   of Top Million domains (see DESIGN.md on sampling weights); the
   reproduction targets are fractions, orderings and curve shapes, not
   absolute match. *)

module R = Analysis.Report
module St = Analysis.Stats
module L = Analysis.Lifetime
module SG = Analysis.Service_groups

let day = Simnet.Clock.day
let minute = Simnet.Clock.minute
let hour = Simnet.Clock.hour

(* --- Helpers ------------------------------------------------------------------ *)

let weighted_count results pred =
  List.fold_left
    (fun acc (r : Scanner.Burst_scan.domain_result) ->
      if pred r then acc +. r.Scanner.Burst_scan.weight else acc)
    0.0 results

(* --- Table 1 -------------------------------------------------------------------- *)

let table1 study =
  let r_dhe, r_ecdhe, r_ticket = Study.table1_bursts study in
  let in_trusted = Study.table1_trusted study in
  let block name results ~support ~field (paper : string list) =
    let total = weighted_count results (fun _ -> true) in
    let trusted = weighted_count results in_trusted in
    let supports = weighted_count results (fun r -> in_trusted r && support r) in
    let repeat2, repeat_all =
      List.fold_left
        (fun (acc2, acc_all) (r : Scanner.Burst_scan.domain_result) ->
          if in_trusted r then begin
            let any2, all = Scanner.Burst_scan.repeats (Scanner.Burst_scan.result_values ~field r) in
            ( (acc2 +. if any2 then r.Scanner.Burst_scan.weight else 0.0),
              acc_all +. if all then r.Scanner.Burst_scan.weight else 0.0 )
          end
          else (acc2, acc_all))
        (0.0, 0.0) results
    in
    let rows =
      [
        [ name; "Alexa 1M domains (weighted)"; R.fmt_count total; List.nth paper 0 ];
        [ ""; "Browser-trusted TLS domains"; R.fmt_count trusted; List.nth paper 1 ];
        [ ""; "Support / issue"; R.fmt_count supports; List.nth paper 2 ];
        [ ""; ">= 2x same value"; R.fmt_count repeat2; List.nth paper 3 ];
        [ ""; "All same value"; R.fmt_count repeat_all; List.nth paper 4 ];
      ]
    in
    rows
  in
  let has_value ~field (r : Scanner.Burst_scan.domain_result) =
    Scanner.Burst_scan.result_values ~field r <> []
  in
  let rows =
    block "DHE" r_dhe
      ~support:(fun r -> r.Scanner.Burst_scan.successes > 0)
      ~field:`Dhe
      [ "957,116"; "427,313"; "252,340"; "18,113"; "12,461" ]
    @ block "ECDHE" r_ecdhe
        ~support:(fun r -> r.Scanner.Burst_scan.successes > 0)
        ~field:`Ecdhe
        [ "958,470"; "438,383"; "390,120"; "60,370"; "41,683" ]
    @ block "Tickets" r_ticket ~support:(has_value ~field:`Stek) ~field:`Stek
        [ "956,094"; "435,150"; "354,697"; "353,124"; "334,404" ]
  in
  R.section "Table 1: Support for Forward Secrecy and Resumption"
  ^ "\n"
  ^ R.table ~headers:[ "Scan"; "Metric"; "Measured (weighted)"; "Paper" ] ~rows
  ^ "\n"

(* --- Figures 1 and 2: resumption lifetimes ---------------------------------------- *)

let resumption_points results =
  List.filter_map
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      Option.map
        (fun h -> { St.value = float_of_int h; weight = r.Scanner.Resumption_scan.weight })
        r.Scanner.Resumption_scan.max_honored)
    results

let resumption_figure ~title ~support_label ~paper_lines study results =
  let trusted = Study.trusted_results results in
  let weight_of f =
    List.fold_left
      (fun acc (r : Scanner.Resumption_scan.domain_result) ->
        if f r then acc +. r.Scanner.Resumption_scan.weight else acc)
      0.0 trusted
  in
  let total = weight_of (fun _ -> true) in
  let supports = weight_of (fun r -> r.Scanner.Resumption_scan.supports) in
  let resumed_1s = weight_of (fun r -> r.Scanner.Resumption_scan.resumed_at_1s) in
  let points = resumption_points trusted in
  let resumer_frac limit = St.fraction points (fun v -> v <= limit) in
  let cdf = St.cdf points in
  ignore study;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (R.section title);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (R.table
       ~headers:[ "Metric"; "Measured"; "Paper" ]
       ~rows:
         [
           [ "Trusted HTTPS domains (weighted)"; R.fmt_count total; List.nth paper_lines 0 ];
           [ support_label; R.fmt_pct (supports /. total); List.nth paper_lines 1 ];
           [ "Resumed after 1 second"; R.fmt_pct (resumed_1s /. total); List.nth paper_lines 2 ];
           [ "Resumers honoring <= 5 min"; R.fmt_pct (resumer_frac 300.0); List.nth paper_lines 3 ];
           [ "Resumers honoring <= 1 hour"; R.fmt_pct (resumer_frac 3600.0); List.nth paper_lines 4 ];
           [
             "Resumers honoring >= 24 hours";
             R.fmt_pct (1.0 -. St.fraction points (fun v -> v < 86_399.0));
             List.nth paper_lines 5;
           ];
         ]);
  Buffer.add_string buf "\n\nCDF of max successful resumption delay (trusted resumers):\n";
  Buffer.add_string buf (R.ascii_cdf ~ticks:Study.ascii_hour_ticks cdf);
  Buffer.contents buf

let fig1 study =
  resumption_figure study
    (Study.fig1_results study)
    ~title:"Figure 1: Session ID Lifetime" ~support_label:"Set a session ID in ServerHello"
    ~paper_lines:[ "433,220"; "97%"; "83%"; "61%"; "82%"; "0.8%" ]

let fig2 study =
  let text =
    resumption_figure study
      (Study.fig2_results study)
      ~title:"Figure 2: Session Ticket Lifetime" ~support_label:"Issued a session ticket"
      ~paper_lines:[ "461,475"; "79%"; "76%"; "67%"; "76%"; "2%" ]
  in
  (* Lifetime-hint specifics the paper calls out. *)
  let trusted = Study.trusted_results (Study.fig2_results study) in
  let hinted =
    List.filter_map
      (fun (r : Scanner.Resumption_scan.domain_result) ->
        Option.map (fun h -> (r, h)) r.Scanner.Resumption_scan.hint)
      trusted
  in
  let total_issuers =
    List.fold_left (fun acc ((r : Scanner.Resumption_scan.domain_result), _) -> acc +. r.Scanner.Resumption_scan.weight) 0.0 hinted
  in
  let unspecified =
    List.fold_left
      (fun acc ((r : Scanner.Resumption_scan.domain_result), h) ->
        if h = 0 then acc +. r.Scanner.Resumption_scan.weight else acc)
      0.0 hinted
  in
  let extremes =
    List.filter (fun (_, h) -> h >= 10 * day) hinted
    |> List.map (fun ((r : Scanner.Resumption_scan.domain_result), h) ->
           Printf.sprintf "%s (%dd)" r.Scanner.Resumption_scan.domain (h / day))
  in
  (* "The indicated ticket lifetime closely follows the advertised
     lifetime hint": compare hint vs measured honored time. *)
  let agreement =
    let within = ref 0.0 and comparable = ref 0.0 in
    List.iter
      (fun ((r : Scanner.Resumption_scan.domain_result), h) ->
        match r.Scanner.Resumption_scan.max_honored with
        | Some honored when h > 0 ->
            comparable := !comparable +. r.Scanner.Resumption_scan.weight;
            (* Honored within one probe interval (5 min) of the hint. *)
            if abs (honored - h) <= 300 then within := !within +. r.Scanner.Resumption_scan.weight
        | _ -> ())
      hinted;
    if !comparable > 0.0 then !within /. !comparable else 0.0
  in
  text
  ^ Printf.sprintf
      "\n\nLifetime hints: %s of issuers leave the hint unspecified (paper: 14,663 domains).\n\
       Hints of 10+ days: %s (paper: fantabobworld.com and fantabobshow.com at 90 days).\n\
       Honored time within one probe interval of the hint: %s of hinted resumers\n\
       (paper: \"the indicated ticket lifetime closely follows the advertised hint\").\n"
      (R.fmt_pct (if total_issuers > 0.0 then unspecified /. total_issuers else 0.0))
      (match extremes with [] -> "none" | l -> String.concat ", " l)
      (R.fmt_pct agreement)

(* --- Figure 3: STEK lifetime -------------------------------------------------------- *)

let fig3 study =
  let spans = Study.stek_spans study in
  let s = L.summarize spans in
  let points = L.span_points spans in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (R.section "Figure 3: STEK Lifetime");
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (R.table
       ~headers:[ "Metric"; "Measured"; "Paper" ]
       ~rows:
         [
           [ "Stable trusted domains (weighted)"; R.fmt_count s.L.population; "291,643" ];
           [ "Never issued a ticket"; R.fmt_pct (s.L.never_observed /. s.L.population); "23%" ];
           [ "Different issuing STEK each day"; R.fmt_pct (s.L.changed_daily /. s.L.population); "41%" ];
           [ "Same STEK for 7+ days"; R.fmt_pct (s.L.span_7d_plus /. s.L.population); "22%" ];
           [ "Same STEK for 30+ days"; R.fmt_pct (s.L.span_30d_plus /. s.L.population); "10%" ];
         ]);
  Buffer.add_string buf "\n\nCDF of max STEK span (days, ticket issuers):\n";
  Buffer.add_string buf (R.ascii_cdf ~ticks:Study.ascii_day_ticks (St.cdf points));
  Buffer.contents buf

(* --- Figure 4: STEK lifetime by rank -------------------------------------------------- *)

let fig4 study =
  let spans = Study.stek_spans study in
  let tiers = Analysis.Rank_buckets.analyze spans in
  let rows =
    List.map
      (fun (t : Analysis.Rank_buckets.tier_summary) ->
        [
          t.Analysis.Rank_buckets.t.Analysis.Rank_buckets.label;
          string_of_int t.Analysis.Rank_buckets.sampled_issuers;
          R.fmt_count t.Analysis.Rank_buckets.issuers;
          R.fmt_pct t.Analysis.Rank_buckets.share_1d;
          R.fmt_pct t.Analysis.Rank_buckets.share_2_6d;
          R.fmt_pct t.Analysis.Rank_buckets.share_7_29d;
          R.fmt_pct t.Analysis.Rank_buckets.share_30d_plus;
          R.fmt_float t.Analysis.Rank_buckets.median_days;
        ])
      tiers
  in
  R.section "Figure 4: STEK Lifetime by Alexa Rank"
  ^ "\n"
  ^ R.table
      ~headers:[ "Tier"; "Sampled"; "Weighted"; "1d"; "2-6d"; "7-29d"; "30d+"; "Median (d)" ]
      ~rows
  ^ "\n\nPaper reference points: 56 ticket issuers in the Top 100 (12 of them holding a STEK\n\
     30+ days); issuers per tier: 494 (1K), 4,154 (10K), 37,224 (100K), 224,702 (1M).\n"

(* --- Tables 2-4: top prolonged reusers ------------------------------------------------- *)

let top_table ~title ~paper_note spans =
  let top = L.top_reusers ~min_days:7 ~limit:10 spans in
  let rows =
    List.map
      (fun (s : L.domain_spans) ->
        [ string_of_int s.L.rank; s.L.domain; string_of_int s.L.max_span_days ])
      top
  in
  R.section title ^ "\n"
  ^ R.table ~headers:[ "Rank"; "Domain"; "# Days" ] ~rows
  ^ "\n\n" ^ paper_note

let table2 study =
  top_table (Study.stek_spans study) ~title:"Table 2: Top Domains with Prolonged STEK Reuse"
    ~paper_note:
      "Paper top rows: yahoo.com (r5, 63d), qq.com (r19, 56d), taobao.com (r20, 63d),\n\
       pinterest.com (r21, 63d), yandex.ru (r28, 63d), netflix.com (r31, 54d), imgur.com\n\
       (r35, 63d), tmall.com (r41, 63d), fc2.com (r53, 18d), pornhub.com (r55, 29d).\n"

let table3 study =
  top_table (Study.dhe_spans study) ~title:"Table 3: Top Domains with Prolonged DHE Reuse"
    ~paper_note:
      "Paper top rows: netflix.com (r31, 59d), fc2.com (r53, 18d), ebay.in (r392, 7d),\n\
       ebay.it (r456, 8d), bleacherreport.com (r528, 24d), kayak.com (r580, 13d),\n\
       cbssports.com (r592, 60d), gamefaqs.com (r626, 12d), overstock.com (r633, 17d),\n\
       cookpad.com (r730, 63d).\n"

let table4 study =
  top_table (Study.ecdhe_spans study) ~title:"Table 4: Top Domains with Prolonged ECDHE Reuse"
    ~paper_note:
      "Paper top rows: netflix.com (r31, 59d), whatsapp.com (r74, 62d), vice.com (r158, 26d),\n\
       9gag.com (r221, 31d), liputan6.com (r322, 28d), paytm.com (r353, 27d),\n\
       playstation.com (r464, 11d), woot.com (r527, 62d), bleacherreport.com (r528, 24d),\n\
       leagueoflegends.com (r615, 27d).\n"

(* --- Figure 5: ephemeral value reuse --------------------------------------------------- *)

let fig5 study =
  let dhe = Study.dhe_spans study in
  let ecdhe = Study.ecdhe_spans study in
  let line name spans paper =
    let s = L.summarize spans in
    let connected = s.L.population -. s.L.never_observed in
    [
      name;
      R.fmt_count connected;
      R.fmt_pct (s.L.span_1d_plus /. connected);
      R.fmt_pct (s.L.span_7d_plus /. connected);
      R.fmt_pct (s.L.span_30d_plus /. connected);
      paper;
    ]
  in
  R.section "Figure 5: Ephemeral Exchange Value Reuse"
  ^ "\n"
  ^ R.table
      ~headers:[ "KEX"; "Connected (wt)"; ">=1d reuse"; ">=7d"; ">=30d"; "Paper (1d/7d/30d)" ]
      ~rows:
        [
          line "DHE" dhe "2.3% / 2.0% / 0.92%";
          line "ECDHE" ecdhe "4.2% / 3.7% / 1.7%";
        ]
  ^ "\n\nCDF of max server KEX value span (days, domains that completed the exchange):\n\n"
  ^ "DHE:\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_day_ticks (St.cdf (L.span_points dhe))
  ^ "\nECDHE:\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_day_ticks (St.cdf (L.span_points ecdhe))
  ^ "\n(Paper fractions above are per domain *completing* that key exchange; the paper's\n\
     Table 1 also reports within-burst repetition: 7.2% of DHE and 15.5% of ECDHE domains.)\n"

(* --- Tables 5-7: service groups --------------------------------------------------------- *)

let groups_table ~title ~paper_note ?population_weight groups =
  let summary = SG.summarize groups in
  let coverage =
    match population_weight with
    | Some w when w > 0.0 ->
        Printf.sprintf "Top-10 groups cover %s of the Top Million. "
          (R.fmt_pct (SG.top_coverage ~k:10 groups ~population_weight:w))
    | _ -> ""
  in
  let rows =
    List.filteri (fun i _ -> i < 10) groups
    |> List.map (fun (g : SG.group) ->
           [
             g.SG.label;
             R.fmt_count g.SG.weighted_size;
             string_of_int g.SG.sampled_size;
             (match g.SG.members with m :: _ -> m | [] -> "");
           ])
  in
  R.section title ^ "\n"
  ^ R.table ~headers:[ "Operator"; "Weighted size"; "Sampled"; "Example member" ] ~rows
  ^ Printf.sprintf "\n\nGroups: %d; singletons: %d (%s). %s" summary.SG.n_groups
      summary.SG.n_singletons
      (R.fmt_pct (float_of_int summary.SG.n_singletons /. float_of_int (max 1 summary.SG.n_groups)))
      coverage
  ^ paper_note

let population_weight study =
  Array.fold_left
    (fun acc d -> acc +. Simnet.World.domain_weight d)
    0.0
    (Simnet.World.domains (Study.world study))

let table5 study =
  groups_table
    (Study.session_cache_groups study)
    ~population_weight:(population_weight study)
    ~title:"Table 5: Largest Session Cache Service Groups"
    ~paper_note:
      "Paper: 212,491 groups, 86% singletons; largest: CloudFlare #1 (30,163), CloudFlare #2\n\
       (15,241), Automattic #1 (2,247), Automattic #2 (1,552), five Blogspot pools (561-849),\n\
       Shopify (593).\n"

let table6 study =
  groups_table (Study.stek_service_groups study)
    ~population_weight:(population_weight study)
    ~title:"Table 6: Largest STEK Service Groups"
    ~paper_note:
      "Paper: 170,634 groups, 83% singletons; largest: CloudFlare (62,176), Google (8,973),\n\
       Automattic (4,182), TMall (3,305), Shopify (3,247), GoDaddy (1,875), Amazon (1,495),\n\
       three Tumblr pools (~960 each).\n"

let table7 study =
  groups_table (Study.dh_service_groups study)
    ~population_weight:(population_weight study)
    ~title:"Table 7: Largest Diffie-Hellman Service Groups"
    ~paper_note:
      "Paper: 421,492 groups, 99% singletons; largest: SquareSpace (1,627), LiveJournal\n\
       (1,330), Jimdo #1/#2 (179/178), Distil (174), Atypon (167), Affinity (146), Line\n\
       (114), Digital Insight (98), EdgeCast (75).\n"

(* --- Figures 6-7: sharing x longevity ------------------------------------------------------ *)

let span_lookup spans =
  let tbl = Hashtbl.create 4096 in
  List.iter (fun (s : L.domain_spans) -> Hashtbl.replace tbl s.L.domain s.L.max_span_days) spans;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some d when d > 0 -> Some (float_of_int d)
    | _ -> None

let treemap_section ~title ~note groups longevity =
  let cells = Analysis.Treemap.cells ~longevity_days:longevity groups in
  let top =
    List.filteri (fun i _ -> i < 12) cells
    |> List.map (fun (c : Analysis.Treemap.cell) ->
           [
             c.Analysis.Treemap.label;
             R.fmt_count c.Analysis.Treemap.weighted_size;
             R.fmt_float c.Analysis.Treemap.median_longevity_days;
             Analysis.Treemap.class_label c.Analysis.Treemap.longevity;
           ])
  in
  R.section title ^ "\n"
  ^ R.table ~headers:[ "Group"; "Weighted size"; "Median longevity (d)"; "Class" ] ~rows:top
  ^ "\n\nMosaic (area ~ group size, glyph ~ longevity):\n"
  ^ Analysis.Treemap.render cells
  ^ "\n" ^ note

let fig6 study =
  let stek_longevity = span_lookup (Study.stek_spans study) in
  treemap_section (Study.stek_service_groups study) stek_longevity
    ~title:"Figure 6: STEK Sharing and Longevity"
    ~note:
      "\nPaper: CloudFlare and Google (20% of Top Million HTTPS) both rotate within a day;\n\
       TMall and Fastly (1,208 domains together) never rotated; the Jack Henry banking\n\
       cluster (79 domains) held one shared STEK for 59 days, then rotated to another.\n"

let fig7 study =
  (* Session caches: longevity = measured max honored resumption delay. *)
  let id_tbl = Hashtbl.create 4096 in
  List.iter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      match r.Scanner.Resumption_scan.max_honored with
      | Some h -> Hashtbl.replace id_tbl r.Scanner.Resumption_scan.domain (float_of_int h /. 86_400.0)
      | None -> ())
    (Study.fig1_results study);
  let cache_longevity name = Hashtbl.find_opt id_tbl name in
  let dhe_lookup = span_lookup (Study.dhe_spans study) in
  let ecdhe_lookup = span_lookup (Study.ecdhe_spans study) in
  let dh_longevity name =
    match (dhe_lookup name, ecdhe_lookup name) with
    | Some a, Some b -> Some (Float.max a b)
    | (Some _ as v), None | None, (Some _ as v) -> v
    | None, None -> None
  in
  treemap_section
    (Study.session_cache_groups study)
    cache_longevity ~title:"Figure 7a: Session Cache Sharing and Longevity"
    ~note:
      "\nPaper: the ten largest shared caches cover 15% of Top Million domains with median\n\
       windows between 5 minutes and 24 hours; the five longest-lived all belong to Google\n\
       Blogspot (4.5h-24h).\n"
  ^ treemap_section (Study.dh_service_groups study) dh_longevity
      ~title:"Figure 7b: Diffie-Hellman Value Sharing and Longevity"
      ~note:
        "\nPaper: smaller groups than caches/STEKs, but Affinity Internet shared one DHE value\n\
         across 91 domains for 62 days and Jimdo shared ECDHE values for 19 and 17 days.\n"

(* --- Figure 8: combined vulnerability windows ----------------------------------------------- *)

let fig8 study =
  let windows = Study.vulnerability_windows study in
  let s = Analysis.Vuln_window.summarize windows in
  let cdf = St.cdf (Analysis.Vuln_window.cdf_points windows) in
  R.section "Figure 8: Overall Vulnerability Windows"
  ^ "\n"
  ^ R.table
      ~headers:[ "Metric"; "Measured"; "Paper" ]
      ~rows:
        [
          [ "Participating domains (weighted)"; R.fmt_count s.Analysis.Vuln_window.population; "288,252" ];
          [ "Window > 24 hours"; R.fmt_pct (s.Analysis.Vuln_window.over_24h /. s.Analysis.Vuln_window.population); "38%" ];
          [ "Window > 7 days"; R.fmt_pct (s.Analysis.Vuln_window.over_7d /. s.Analysis.Vuln_window.population); "22%" ];
          [ "Window > 30 days"; R.fmt_pct (s.Analysis.Vuln_window.over_30d /. s.Analysis.Vuln_window.population); "10%" ];
        ]
  ^ "\n\nCDF of maximum exposure window:\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_window_ticks cdf

(* --- Section 3: the dataset funnel ------------------------------------------------------------ *)

(* The paper's data-collection statistics: how much of the Top Million is
   stable across the nine weeks, and how the analysis population funnels
   down from it (539,546 always-listed -> 68% ever HTTPS -> 54% ever
   browser-trusted -> 53% participating in some studied mechanism). *)
let section3 study =
  let world = Study.world study in
  let campaign = Study.campaign study in
  let fig1 = Study.fig1_results study and fig2 = Study.fig2_results study in
  let supports = Hashtbl.create 4096 in
  List.iter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      if r.Scanner.Resumption_scan.supports then
        Hashtbl.replace supports r.Scanner.Resumption_scan.domain ())
    (fig1 @ fig2);
  let stable = ref 0.0 and ever_https = ref 0.0 and ever_trusted = ref 0.0 in
  let participated = ref 0.0 in
  Array.iter
    (fun (series : Scanner.Daily_scan.domain_series) ->
      if series.Scanner.Daily_scan.stable then begin
        let w = series.Scanner.Daily_scan.weight in
        stable := !stable +. w;
        let https =
          Array.exists
            (fun (r : Scanner.Daily_scan.day_record) ->
              r.Scanner.Daily_scan.default_ok || r.Scanner.Daily_scan.dhe_ok)
            series.Scanner.Daily_scan.days
        in
        if https then ever_https := !ever_https +. w;
        if https && series.Scanner.Daily_scan.trusted then begin
          ever_trusted := !ever_trusted +. w;
          let kex_or_ticket =
            Array.exists
              (fun (r : Scanner.Daily_scan.day_record) ->
                r.Scanner.Daily_scan.stek_id <> None
                || r.Scanner.Daily_scan.ecdhe_value <> None
                || r.Scanner.Daily_scan.dhe_value <> None)
              series.Scanner.Daily_scan.days
          in
          if kex_or_ticket || Hashtbl.mem supports series.Scanner.Daily_scan.domain then
            participated := !participated +. w
        end
      end)
    campaign.Scanner.Daily_scan.series;
  let total =
    Array.fold_left
      (fun acc d -> acc +. Simnet.World.domain_weight d)
      0.0 (Simnet.World.domains world)
  in
  let pct v = R.fmt_pct (v /. !stable) in
  R.section "Section 3: Data Collection (the analysis-population funnel)"
  ^ "
"
  ^ R.table
      ~headers:[ "Metric"; "Measured (weighted)"; "Paper" ]
      ~rows:
        [
          [ "Top Million represented"; R.fmt_count total; "1,000,000/day" ];
          [ "In the list all days"; R.fmt_count !stable; "539,546" ];
          [ "...ever supported HTTPS"; R.fmt_count !ever_https ^ " (" ^ pct !ever_https ^ ")"; "369,034 (68%)" ];
          [ "...ever browser-trusted"; R.fmt_count !ever_trusted ^ " (" ^ pct !ever_trusted ^ ")"; "291,643 (54%)" ];
          [
            "...issued a ticket, resumed, or did (EC)DHE";
            R.fmt_count !participated ^ " (" ^ pct !participated ^ ")";
            "288,252 (53%)";
          ];
        ]
  ^ "

(Measurements over multiple days are restricted to the always-listed population,
     as in the paper; churned-in/out domains appear in the daily lists but not here.)
"

(* --- By id --------------------------------------------------------------------------------- *)

let by_name =
  [
    ("s3", section3);
    ("t1", table1);
    ("f1", fig1);
    ("f2", fig2);
    ("f3", fig3);
    ("f4", fig4);
    ("t2", table2);
    ("t3", table3);
    ("t4", table4);
    ("f5", fig5);
    ("t5", table5);
    ("t6", table6);
    ("t7", table7);
    ("f6", fig6);
    ("f7", fig7);
    ("f8", fig8);
    (* The live counterpart of the section-3 funnel: what the scanner
       itself lost, per day and per cause, under the configured fault
       profile (all-zero loss rows under the default [none] profile). *)
    ("funnel", Study.funnel_report);
  ]

let _ = (minute, hour)
