(* One entry point per table and figure of the paper's evaluation. Each
   function runs (or reuses) the relevant experiments through {!Study}
   and returns the formatted text. Paper values, and how each headline
   share is counted, come from {!Paper}: the headline tables render its
   population counts and measured targets. Absolute counts are weighted
   estimates of Top Million domains (see DESIGN.md on sampling weights);
   the reproduction targets are fractions, orderings and curve shapes,
   not absolute match. *)

module R = Analysis.Report
module St = Analysis.Stats
module L = Analysis.Lifetime
module SG = Analysis.Service_groups

let day = Simnet.Clock.day

(* --- Helpers ------------------------------------------------------------------ *)

(* Paper's population counts and headline targets for experiment [id],
   measured on the study. *)
let headline study id =
  let counts =
    match List.filter (fun (c : Paper.count) -> c.Paper.table = id) Paper.counts with
    | [] -> ""
    | counts ->
        R.table
          ~headers:[ "Population"; "Paper"; "Measured (weighted)" ]
          ~rows:
            (List.map
               (fun (c : Paper.count) ->
                 [
                   c.Paper.label; R.fmt_count c.Paper.paper_count; R.fmt_count (Paper.size study c);
                 ])
               counts)
        ^ "\n\n"
  in
  counts ^ Paper.render (Paper.measure study (Paper.of_experiment id))

(* --- Table 1 -------------------------------------------------------------------- *)

let table1 study =
  R.section "Table 1: Support for Forward Secrecy and Resumption" ^ "\n" ^ headline study "t1"

(* --- Figures 1 and 2: resumption lifetimes ---------------------------------------- *)

let resumption_figure ~title id results study =
  R.section title ^ "\n" ^ headline study id
  ^ "\nCDF of max successful resumption delay (trusted resumers):\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_hour_ticks (St.cdf (Paper.resumers (results study)))

let fig1 = resumption_figure ~title:"Figure 1: Session ID Lifetime" "f1" Study.fig1_results

let fig2 study =
  (* The lifetime-hint case study the paper calls out. *)
  let extremes =
    List.filter_map
      (fun (r : Scanner.Resumption_scan.domain_result) ->
        match r.Scanner.Resumption_scan.hint with
        | Some h when h >= 10 * day ->
            Some (Printf.sprintf "%s (%dd)" r.Scanner.Resumption_scan.domain (h / day))
        | _ -> None)
      (Study.trusted_results (Study.fig2_results study))
  in
  resumption_figure ~title:"Figure 2: Session Ticket Lifetime" "f2" Study.fig2_results study
  ^ Printf.sprintf
      "\n\nHints of 10+ days: %s (paper: fantabobworld.com and fantabobshow.com at 90 days).\n"
      (match extremes with [] -> "none" | l -> String.concat ", " l)

(* --- Figure 3: STEK lifetime -------------------------------------------------------- *)

let fig3 study =
  R.section "Figure 3: STEK Lifetime" ^ "\n" ^ headline study "f3"
  ^ "\nCDF of max STEK span (days, ticket issuers):\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_day_ticks (St.cdf (L.span_points (Study.stek_spans study)))

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
  let cdf spans = R.ascii_cdf ~ticks:Study.ascii_day_ticks (St.cdf (L.span_points spans)) in
  R.section "Figure 5: Ephemeral Exchange Value Reuse" ^ "\n" ^ headline study "f5"
  ^ "\nShares and CDFs are of the domains that completed that key exchange; Table 1 (t1)\n\
     reports within-burst repetition.\n\n\
     CDF of max server KEX value span (days):\n\n\
     DHE:\n"
  ^ cdf (Study.dhe_spans study)
  ^ "\nECDHE:\n"
  ^ cdf (Study.ecdhe_spans study)
  ^ "\n"

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
  R.section "Figure 8: Overall Vulnerability Windows" ^ "\n" ^ headline study "f8"
  ^ "\nCDF of maximum exposure window:\n"
  ^ R.ascii_cdf ~ticks:Study.ascii_window_ticks
      (St.cdf (Analysis.Vuln_window.cdf_points (Study.vulnerability_windows study)))

(* --- Section 3: the dataset funnel ------------------------------------------------------------ *)

(* The paper's data-collection statistics: how much of the Top Million is
   stable across the nine weeks, and how the analysis population funnels
   down from it. *)
let section3 study =
  R.section "Section 3: Data Collection (the analysis-population funnel)"
  ^ "\n" ^ headline study "s3"
  ^ "\n(Measurements over multiple days are restricted to the always-listed population,\n\
     as in the paper; churned-in/out domains appear in the daily lists but not here.)\n"

(* --- Archived campaigns ---------------------------------------------------------------------- *)

let lifetime_report (campaign : Scanner.Daily_scan.t) =
  let pct (r : Paper.result) =
    Printf.sprintf "%s (SE %s)"
      (R.fmt_pct r.Paper.measured.St.share)
      (R.fmt_pct r.Paper.measured.St.se)
  in
  let measure = Paper.measure_archive campaign in
  let field_lines (field, name) =
    let shape = measure (Paper.lifetime field) in
    Printf.sprintf "%-6s %s\n" name
      (String.concat " "
         (List.map2
            (fun label (r : Paper.result) -> label ^ "=" ^ R.fmt_pct r.Paper.measured.St.share)
            [ "never"; "daily"; "7d+"; "30d+" ] shape))
    ^ String.concat ""
        (List.map
           (fun (r : Paper.result) ->
             Printf.sprintf "         %s %s: %s, paper %s\n" r.Paper.target.Paper.experiment
               r.Paper.target.Paper.metric (pct r) (R.fmt_pct r.Paper.target.Paper.paper))
           (measure (Paper.of_field field)))
    ^ String.concat ""
        (List.map
           (fun (x : L.domain_spans) ->
             Printf.sprintf "         r%-7d %-40s %2d days\n" x.L.rank x.L.domain x.L.max_span_days)
           (L.top_reusers ~min_days:7 ~limit:5 (L.analyze ~field campaign)))
  in
  Printf.sprintf "campaign: %d domains, %d days\n\n"
    (Array.length campaign.Scanner.Daily_scan.series)
    campaign.Scanner.Daily_scan.n_days
  ^ String.concat "" (List.map field_lines [ (L.Stek, "STEK"); (L.Dhe, "DHE"); (L.Ecdhe, "ECDHE") ])

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

