(* Tests for the client-side traffic subsystem: the lifetime-aware
   client store (boundary-day expiry, the capacity bound), the row
   codec, the multi-quantile helper, and the population runner's two
   contracts — byte-identical archives at any worker count and across a
   crash-and-rerun. *)

open Helpers

let session ?(id = String.make 32 'i') () =
  Tls.Session.make ~id ~master_secret:(String.make 48 'm')
    ~cipher_suite:Tls.Types.ECDHE_ECDSA_AES128_SHA256 ~established_at:0

let is_ticket = function Tls.Client.Offer_ticket _ -> true | _ -> false
let is_session_id = function Tls.Client.Offer_session_id _ -> true | _ -> false
let is_fresh o = o = Tls.Client.Fresh

(* --- Client store: lifetime boundaries ---------------------------------------- *)

(* The regression the lifetime satellite pins down: state is offerable
   at exactly [stored_at + lifetime] and Fresh one second later, for
   every way the effective lifetime can arise. *)

let test_ticket_hint_boundary () =
  let store = Tls.Client_store.create ~capacity:4 () in
  Tls.Client_store.note store ~now:1000 ~scope:"a.example" ~session:(Some (session ~id:"" ()))
    ~ticket:(Some (100, "tkt"));
  Alcotest.(check bool)
    "live at deadline" true
    (is_ticket (Tls.Client_store.offer store ~now:1100 ~scope:"a.example"));
  Alcotest.(check bool)
    "dead one second past" true
    (is_fresh (Tls.Client_store.offer store ~now:1101 ~scope:"a.example"));
  Alcotest.(check int) "expiration counted" 1 (Tls.Client_store.expirations store)

let test_ticket_cap_tightens_hint () =
  let store = Tls.Client_store.create ~ticket_lifetime_cap:50 ~capacity:4 () in
  Tls.Client_store.note store ~now:0 ~scope:"a" ~session:(Some (session ~id:"" ()))
    ~ticket:(Some (100, "tkt"));
  Alcotest.(check bool)
    "live at min(hint,cap)" true
    (is_ticket (Tls.Client_store.offer store ~now:50 ~scope:"a"));
  Alcotest.(check bool)
    "cap wins over hint" true
    (is_fresh (Tls.Client_store.offer store ~now:51 ~scope:"a"))

let test_ticket_unspecified_hint_uses_cap () =
  (* RFC 5077: a hint of 0 means unspecified — the client cap alone
     bounds reuse. *)
  let store = Tls.Client_store.create ~ticket_lifetime_cap:50 ~capacity:4 () in
  Tls.Client_store.note store ~now:0 ~scope:"a" ~session:(Some (session ~id:"" ()))
    ~ticket:(Some (0, "tkt"));
  Alcotest.(check bool)
    "live at cap" true
    (is_ticket (Tls.Client_store.offer store ~now:50 ~scope:"a"));
  Alcotest.(check bool)
    "dead past cap" true
    (is_fresh (Tls.Client_store.offer store ~now:51 ~scope:"a"))

let test_ticket_no_bound_never_self_expires () =
  let store = Tls.Client_store.create ~capacity:4 () in
  Tls.Client_store.note store ~now:0 ~scope:"a" ~session:(Some (session ~id:"" ()))
    ~ticket:(Some (0, "tkt"));
  Alcotest.(check bool)
    "still offered years later" true
    (is_ticket (Tls.Client_store.offer store ~now:(400 * 86_400) ~scope:"a"))

let test_session_id_boundary () =
  (* A session ID lives for one day. *)
  let store = Tls.Client_store.create ~capacity:4 () in
  Tls.Client_store.note store ~now:0 ~scope:"a" ~session:(Some (session ())) ~ticket:None;
  Alcotest.(check bool)
    "live at one day" true
    (is_session_id (Tls.Client_store.offer store ~now:86_400 ~scope:"a"));
  Alcotest.(check bool)
    "dead one second past" true
    (is_fresh (Tls.Client_store.offer store ~now:86_401 ~scope:"a"))

let test_empty_session_id_never_offered () =
  let store = Tls.Client_store.create ~capacity:4 () in
  Tls.Client_store.note store ~now:0 ~scope:"a" ~session:(Some (session ~id:"" ()))
    ~ticket:None;
  Alcotest.(check bool)
    "no id, no offer" true
    (is_fresh (Tls.Client_store.offer store ~now:1 ~scope:"a"))

(* Boundary-day regression at campaign granularity: a ticket with a
   one-day hint survives to the next simulated day's same second and no
   further — the exact situation a 63-day browsing history exercises
   daily. *)
let test_boundary_day_regression () =
  let day = 86_400 in
  let store = Tls.Client_store.create ~capacity:4 () in
  Tls.Client_store.note store ~now:(3 * day) ~scope:"s" ~session:(Some (session ()))
    ~ticket:(Some (day, "tkt"));
  Alcotest.(check bool)
    "offerable on day 4" true
    (Tls.Client_store.holds store ~now:(4 * day) ~scope:"s");
  Alcotest.(check bool)
    "gone on day 4 + 1s" false
    (Tls.Client_store.holds store ~now:((4 * day) + 1) ~scope:"s")

(* --- Client store: capacity bound --------------------------------------------- *)

let test_lru_eviction () =
  let store = Tls.Client_store.create ~capacity:3 () in
  let note ~now scope =
    Tls.Client_store.note store ~now ~scope ~session:(Some (session ()))
      ~ticket:(Some (0, "tkt-" ^ scope))
  in
  note ~now:0 "a";
  note ~now:1 "b";
  note ~now:2 "c";
  (* Touch [a]: [b] becomes least recently used. *)
  ignore (Tls.Client_store.offer store ~now:3 ~scope:"a");
  note ~now:4 "d";
  Alcotest.(check int) "size bounded" 3 (Tls.Client_store.size store);
  Alcotest.(check int) "one eviction" 1 (Tls.Client_store.evictions store);
  Alcotest.(check bool) "LRU scope gone" false (Tls.Client_store.holds store ~now:5 ~scope:"b");
  List.iter
    (fun s ->
      Alcotest.(check bool) ("retained " ^ s) true
        (Tls.Client_store.holds store ~now:5 ~scope:s))
    [ "a"; "c"; "d" ]

(* The bounded-memory guarantee the million-user population rests on:
   63 days of browsing over arbitrarily many scopes never holds more
   than [capacity] scopes. *)
let prop_store_bounded =
  QCheck2.Test.make ~name:"client store never exceeds capacity over 63 days" ~count:50
    QCheck2.Gen.(
      let* capacity = int_range 1 16 in
      let* visits = list_size (int_range 1 400) (pair (int_range 0 500) (int_range 0 62)) in
      return (capacity, visits))
    (fun (capacity, visits) ->
      let store = Tls.Client_store.create ~capacity () in
      List.for_all
        (fun (site, day) ->
          let now = (day * 86_400) + site in
          let scope = Printf.sprintf "site-%d.example" site in
          ignore (Tls.Client_store.offer store ~now ~scope);
          Tls.Client_store.note store ~now ~scope ~session:(Some (session ()))
            ~ticket:(Some (3600, "tkt"));
          Tls.Client_store.size store <= capacity)
        visits)

(* --- Row codec ----------------------------------------------------------------- *)

let hostname_gen =
  QCheck2.Gen.(
    let seg = string_size ~gen:(oneofl [ 'a'; 'b'; 'z'; '0'; '9'; '-' ]) (int_range 1 8) in
    map2 (fun a b -> a ^ "." ^ b) seg seg)

let row_gen =
  QCheck2.Gen.(
    let* time = int_range 0 10_000_000 in
    let* user = int_range 0 1_000_000 in
    let* page = int_range 0 10_000 in
    let* hostname = hostname_gen in
    let* page_host = hostname_gen in
    let* primary = bool in
    let* ok = bool in
    let* offered = oneofl [ Traffic.Row.O_fresh; O_session_id; O_ticket ] in
    let* resumed = oneofl [ Traffic.Row.R_no; R_session_id; R_ticket ] in
    let* new_ticket = bool in
    let* chain = int_range 0 100_000 in
    return
      {
        Traffic.Row.time;
        user;
        page;
        hostname;
        page_host;
        primary;
        ok;
        offered;
        resumed;
        new_ticket;
        chain;
      })

let prop_row_roundtrip =
  QCheck2.Test.make ~name:"row line roundtrip" ~count:500 row_gen (fun r ->
      Traffic.Row.of_line (Traffic.Row.to_line r) = Ok r)

let prop_day_roundtrip =
  QCheck2.Test.make ~name:"day block roundtrip" ~count:100
    QCheck2.Gen.(pair (int_range 0 100) (list_size (int_range 0 40) row_gen))
    (fun (day, rows) ->
      Traffic.Row.decode_day (Traffic.Row.day_payload ~day rows) = Ok (day, rows))

let test_trailer_roundtrip () =
  let hosts =
    [
      ("a.example", { Traffic.Row.h_rank = 1; h_weight = 1.0; h_operator = "google" });
      ("b.example", { Traffic.Row.h_rank = 17; h_weight = 0.1 /. 3.0; h_operator = "site:b" });
    ]
  in
  Alcotest.(check bool)
    "roundtrip" true
    (Traffic.Row.decode_trailer (Traffic.Row.trailer ~users_lo:32 ~users_hi:64 hosts)
    = Ok (32, 64, hosts))

(* --- Stats.quantiles ----------------------------------------------------------- *)

(* The single-pass implementation must agree exactly — same float
   accumulation, bit for bit — with calling [percentile] per quantile. *)
let prop_quantiles_match_percentile =
  QCheck2.Test.make ~name:"quantiles = repeated percentile (exact)" ~count:300
    QCheck2.Gen.(
      let point =
        let* value = map float_of_int (int_range (-1000) 1000) in
        let* weight = map (fun w -> float_of_int w /. 16.0) (int_range 0 64) in
        return { Analysis.Stats.value; weight }
      in
      let* pts = list_size (int_range 0 50) point in
      let* qs = list_size (int_range 1 8) (map (fun q -> float_of_int q /. 20.0) (int_range 0 20)) in
      return (pts, qs))
    (fun (pts, qs) ->
      let same a b = (Float.is_nan a && Float.is_nan b) || a = b in
      List.for_all2 same (Analysis.Stats.quantiles pts qs)
        (List.map (Analysis.Stats.percentile pts) qs))

let test_quantiles_rejects_bad_q () =
  Alcotest.check_raises "q > 1" (Invalid_argument "Stats.quantiles: q out of range")
    (fun () -> ignore (Analysis.Stats.quantiles [] [ 1.5 ]))

(* --- Population runner --------------------------------------------------------- *)

let traffic_config =
  {
    Traffic.Population.default_config with
    Traffic.Population.users = 45;
    days = 3;
    shard_users = 16;
    pages_per_day = 1.5;
    store_capacity = 8;
    world =
      { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "traffic-test" };
  }

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> (n, read_file (Filename.concat dir n)))

let make_sink dir =
  match
    Scanner.Stream_sink.create ~dir
      ~manifest:
        [
          ("mode", "traffic");
          ("users", string_of_int traffic_config.Traffic.Population.users);
          ("days", string_of_int traffic_config.Traffic.Population.days);
          ("policy", "strict");
          ("ticket_lifetime", "0");
        ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A run keeps no rows in memory; read them back from its sink. *)
let sink_rows dir =
  let shard_rows shard =
    match Traffic.Traffic_sink.read_shard ~dir ~shard with
    | Ok (rows, _) -> rows
    | Error e -> Alcotest.fail e
  in
  match Traffic.Traffic_sink.shard_ids ~dir with
  | Ok ids -> List.concat_map shard_rows ids
  | Error e -> Alcotest.fail e

(* One deterministic reference run, shared by the tests below, with the
   tracking report folded from its sink. *)
let reference =
  lazy
    (with_temp_dir (fun dir ->
         let sink = make_sink dir in
         let r = Traffic.Population.run ~jobs:1 ~sink traffic_config in
         match Analysis.Tracking_report.of_sink ~dir with
         | Ok report -> (r, dir_contents dir, sink_rows dir, report)
         | Error e -> Alcotest.fail e))

let test_jobs_invariance () =
  let r1, bytes1, rows1, _ = Lazy.force reference in
  with_temp_dir (fun dir ->
      let sink = make_sink dir in
      let r4 = Traffic.Population.run ~jobs:4 ~sink traffic_config in
      Alcotest.(check bool) "streamed rows identical" true (rows1 = sink_rows dir);
      Alcotest.(check int)
        "row count" r1.Traffic.Population.total_rows r4.Traffic.Population.total_rows;
      Alcotest.(check (list (pair string string)))
        "archive byte-identical at jobs 1 vs 4" bytes1 (dir_contents dir))

let test_crash_rerun_identical () =
  let _, reference_bytes, _, _ = Lazy.force reference in
  with_temp_dir (fun dir ->
      (* A directory where shard 2's spool belongs makes that shard
         raise at its first write, as a full disk would. *)
      let spool = "rows-users-0002" in
      Sys.mkdir (Filename.concat dir spool) 0o755;
      (match Traffic.Population.run ~jobs:1 ~sink:(make_sink dir) traffic_config with
      | _ -> Alcotest.fail "the blocked shard must fail the run"
      | exception Sys_error _ -> ());
      Sys.rmdir (Filename.concat dir spool);
      (* The interrupted log lacks shard 2 and holds the rest intact... *)
      Alcotest.(check (list (pair string string)))
        "crashed log incomplete" (List.remove_assoc spool reference_bytes) (dir_contents dir);
      (* ...and a plain re-run into the same directory must complete it
         to the exact uninterrupted bytes, skipping finished shards. *)
      ignore (Traffic.Population.run ~jobs:1 ~sink:(make_sink dir) traffic_config);
      Alcotest.(check (list (pair string string)))
        "re-run archive byte-identical to uninterrupted" reference_bytes (dir_contents dir))

let test_sink_refuses_mismatched_manifest () =
  with_temp_dir (fun dir ->
      (match Scanner.Stream_sink.create ~dir ~manifest:[ ("mode", "traffic"); ("users", "45") ] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      match Scanner.Stream_sink.create ~dir ~manifest:[ ("mode", "traffic"); ("users", "46") ] with
      | Ok _ -> Alcotest.fail "mismatched manifest accepted"
      | Error _ -> ())

(* A huge mean must cap the day's page count, not wrap it: the draw is
   capped before it becomes an int. An infinite mean is refused up
   front. *)
let test_pages_today_caps_huge_mean () =
  let rng = Crypto.Rng.create ~seed:"pages-today" in
  for _ = 1 to 100 do
    Alcotest.(check int) "1e300 mean hits the cap" 12
      (Traffic.Browse.pages_today rng ~mean:1e300 ~max_pages:12)
  done;
  with_temp_dir (fun dir ->
      Alcotest.check_raises "infinite mean refused"
        (Invalid_argument "Population: pages_per_day must be finite") (fun () ->
          ignore
            (Traffic.Population.run ~jobs:1 ~sink:(make_sink dir)
               { traffic_config with Traffic.Population.pages_per_day = infinity })))

let test_obs_and_store_bound () =
  let obs = Obs.Recorder.create () in
  let r =
    with_temp_dir (fun dir ->
        Traffic.Population.run ~jobs:1 ~sink:(make_sink dir) ~obs traffic_config)
  in
  let m = Obs.Recorder.metrics obs in
  Alcotest.(check int)
    "connects counter = rows" r.Traffic.Population.total_rows
    (Obs.Metrics.counter_value m "traffic.connects");
  let offers =
    Obs.Metrics.counter_value m "traffic.offer.fresh"
    + Obs.Metrics.counter_value m "traffic.offer.session_id"
    + Obs.Metrics.counter_value m "traffic.offer.ticket"
  in
  Alcotest.(check int) "offer counters partition connects" r.Traffic.Population.total_rows offers;
  match Obs.Metrics.gauge_value m "traffic.store.size" with
  | None -> Alcotest.fail "no store.size gauge"
  | Some peak ->
      Alcotest.(check bool)
        (Printf.sprintf "store peak %d within capacity" peak)
        true
        (peak <= traffic_config.Traffic.Population.store_capacity)

let test_tracking_report_renders () =
  let r, _, _, t = Lazy.force reference in
  let all = List.find (fun row -> row.Analysis.Tracking_report.cls = "(all)") t.rows in
  Alcotest.(check int)
    "(all) row covers every connection" r.Traffic.Population.total_rows
    all.Analysis.Tracking_report.conns;
  let rendered = Analysis.Tracking_report.render t in
  Alcotest.(check bool) "table mentions policy" true (contains rendered "policy=strict");
  Alcotest.(check bool) "table has (all) row" true (contains rendered "(all)")

(* [Crypto.Rng.fork] refuses a label its parent already forked, so a
   world build, a campaign and a traffic run that finish have forked
   every label once: no two entities silently share a stream. Three
   seeds, so the check does not hang on one world's population. *)
let test_fork_labels_unique () =
  List.iter
    (fun seed ->
      let world_config = { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed } in
      let world = Simnet.World.create ~config:world_config () in
      ignore (Scanner.Parallel_campaign.collect ~jobs:2 world ~days:1);
      with_temp_dir (fun dir ->
          let config =
            { traffic_config with Traffic.Population.days = 1; world = world_config }
          in
          ignore (Traffic.Population.run ~jobs:1 ~sink:(make_sink dir) config)))
    [ "tlsharm"; "fork-labels-1"; "fork-labels-2" ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "traffic"
    [
      ( "client-store",
        [
          Alcotest.test_case "ticket hint boundary" `Quick test_ticket_hint_boundary;
          Alcotest.test_case "cap tightens hint" `Quick test_ticket_cap_tightens_hint;
          Alcotest.test_case "unspecified hint uses cap" `Quick
            test_ticket_unspecified_hint_uses_cap;
          Alcotest.test_case "no bound never self-expires" `Quick
            test_ticket_no_bound_never_self_expires;
          Alcotest.test_case "session-id boundary" `Quick test_session_id_boundary;
          Alcotest.test_case "empty session id never offered" `Quick
            test_empty_session_id_never_offered;
          Alcotest.test_case "boundary-day regression" `Quick test_boundary_day_regression;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          q prop_store_bounded;
        ] );
      ( "row-codec",
        [
          q prop_row_roundtrip;
          q prop_day_roundtrip;
          Alcotest.test_case "trailer roundtrip" `Quick test_trailer_roundtrip;
        ] );
      ( "quantiles",
        [ q prop_quantiles_match_percentile;
          Alcotest.test_case "rejects q outside [0,1]" `Quick test_quantiles_rejects_bad_q;
        ] );
      ( "population",
        [
          Alcotest.test_case "jobs invariance" `Slow test_jobs_invariance;
          Alcotest.test_case "crash + rerun byte-identical" `Slow test_crash_rerun_identical;
          Alcotest.test_case "sink refuses mismatched manifest" `Quick
            test_sink_refuses_mismatched_manifest;
          Alcotest.test_case "pages_today caps a huge mean" `Quick test_pages_today_caps_huge_mean;
          Alcotest.test_case "obs counters + store bound" `Slow test_obs_and_store_bound;
          Alcotest.test_case "tracking report totals" `Slow test_tracking_report_renders;
        ] );
      ( "rng-forks",
        [ Alcotest.test_case "world, campaign and traffic at three seeds" `Slow test_fork_labels_unique ] );
    ]
