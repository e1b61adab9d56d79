(* Tests for the scanner: observation records (CSV round-trip), burst
   scans, the resumption-delay walks, the daily campaign, and the
   cross-domain probe — all against one small shared world. *)

let world_config =
  { Simnet.World.default_config with Simnet.World.n_domains = 1600; seed = "scanner-test" }

let world = lazy (Simnet.World.create ~config:world_config ())

let subset_domains names =
  let w = Lazy.force world in
  Some
    (List.filter_map (fun n -> Simnet.World.find_domain w n) names)

(* --- Observations ---------------------------------------------------------------- *)

let sample_conn =
  {
    Scanner.Observation.time = 12345;
    domain = "example.com";
    ok = true;
    resumed = Scanner.Observation.By_ticket;
    cipher = Some Tls.Types.ECDHE_ECDSA_AES128_SHA256;
    session_id_set = true;
    session_id = "aabb";
    trusted = true;
    stek_id = Some "deadbeef";
    ticket_hint = Some 300;
    dhe_value = None;
    ecdhe_value = Some "0011";
    failure = None;
    attempts = 1;
    region = Simnet.Region.default_name;
  }

let test_csv_roundtrip () =
  let row = Scanner.Observation.to_csv_row sample_conn in
  match Scanner.Observation.of_csv_row row with
  | Some c -> Alcotest.(check bool) "roundtrip" true (c = sample_conn)
  | None -> Alcotest.fail "row did not parse"

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "tlsharm" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let conns =
        [ sample_conn; Scanner.Observation.failed_conn ~time:1 ~domain:"down.example" () ]
      in
      Scanner.Observation.write_csv path conns;
      match Scanner.Observation.read_csv path with
      | Ok read -> Alcotest.(check bool) "file roundtrip" true (read = conns)
      | Error e -> Alcotest.fail e)

(* A present field that does not parse makes the row bad; it must not
   load as an absent value. *)
let test_csv_rejects_malformed_fields () =
  let fields = Array.of_list (String.split_on_char ',' (Scanner.Observation.to_csv_row sample_conn)) in
  List.iter
    (fun (what, column, value) ->
      let f = Array.copy fields in
      f.(column) <- value;
      let row = String.concat "," (Array.to_list f) in
      Alcotest.(check bool) (what ^ " rejected") true (Scanner.Observation.of_csv_row row = None);
      let path = Filename.temp_file "tlsharm" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Durable.Atomic_io.write path (Scanner.Observation.csv_header ^ "\n" ^ row ^ "\n");
          match Scanner.Observation.read_csv path with
          | Ok _ -> Alcotest.fail (what ^ " loaded")
          | Error e ->
              Alcotest.(check bool) (what ^ " is a bad row") true
                (String.starts_with ~prefix:"bad CSV row" e)))
    [ ("ticket hint zz", 9, "zz"); ("cipher abc", 4, "abc"); ("unknown cipher 65535", 4, "65535") ]

let prop_csv_roundtrip =
  QCheck2.Test.make ~name:"conn CSV roundtrip" ~count:200
    QCheck2.Gen.(
      let hexstr = map (fun n -> Printf.sprintf "%x" (abs n)) big_nat in
      let* time = int_range 0 1_000_000_000 in
      let* ok = bool in
      let* trusted = bool in
      let* id_set = bool in
      let* stek = option hexstr in
      let* hint = option (int_range 0 10_000_000) in
      let* dhe = option hexstr in
      let* ecdhe = option hexstr in
      let* attempts = int_range 1 5 in
      let* failure =
        if ok then return None
        else map Option.some (oneofl Faults.Fault.all)
      in
      return
        {
          Scanner.Observation.time;
          domain = "a.example";
          ok;
          resumed = Scanner.Observation.No_resumption;
          cipher = Some Tls.Types.DHE_ECDSA_AES128_SHA256;
          session_id_set = id_set;
          session_id = "00ff";
          trusted;
          stek_id = stek;
          ticket_hint = hint;
          dhe_value = dhe;
          ecdhe_value = ecdhe;
          failure;
          attempts;
          region = Simnet.Region.default_name;
        })
    (fun conn ->
      match Scanner.Observation.of_csv_row (Scanner.Observation.to_csv_row conn) with
      | Some c -> c = conn
      | None -> false)

(* --- Burst scans -------------------------------------------------------------------- *)

let test_repeats () =
  Alcotest.(check (pair bool bool)) "empty" (false, false) (Scanner.Burst_scan.repeats []);
  Alcotest.(check (pair bool bool)) "single" (false, false) (Scanner.Burst_scan.repeats [ "a" ]);
  Alcotest.(check (pair bool bool)) "all same" (true, true) (Scanner.Burst_scan.repeats [ "a"; "a"; "a" ]);
  Alcotest.(check (pair bool bool)) "some repeat" (true, false)
    (Scanner.Burst_scan.repeats [ "a"; "b"; "a" ]);
  Alcotest.(check (pair bool bool)) "all distinct" (false, false)
    (Scanner.Burst_scan.repeats [ "a"; "b"; "c" ])

let test_burst_scan () =
  let w = Lazy.force world in
  let probe = Scanner.Probe.create ~seed:"burst-test" w in
  let domains = subset_domains [ "google.com"; "yahoo.com"; "netflix.com" ] in
  let results = Scanner.Burst_scan.run probe ~domains ~rounds:5 ~gap:10 () in
  Alcotest.(check int) "three results" 3 (List.length results);
  List.iter
    (fun (r : Scanner.Burst_scan.domain_result) ->
      Alcotest.(check int) "five attempts" 5 r.Scanner.Burst_scan.attempts;
      Alcotest.(check bool) "mostly successful" true (r.Scanner.Burst_scan.successes >= 4);
      Alcotest.(check bool) "trusted" true r.Scanner.Burst_scan.trusted;
      (* All three notables issue tickets. *)
      Alcotest.(check bool) "stek ids seen" true
        (Scanner.Burst_scan.result_values ~field:`Stek r <> []))
    results

let test_burst_detects_static_stek () =
  let w = Lazy.force world in
  let probe = Scanner.Probe.create ~seed:"burst-static" w in
  let results = Scanner.Burst_scan.run probe ~domains:(subset_domains [ "yahoo.com" ]) ~rounds:6 ~gap:10 () in
  match results with
  | [ r ] ->
      let any2, all = Scanner.Burst_scan.repeats (Scanner.Burst_scan.result_values ~field:`Stek r) in
      Alcotest.(check bool) "static STEK repeats" true (any2 && all)
  | _ -> Alcotest.fail "expected one result"

(* --- Resumption scans ------------------------------------------------------------------ *)

let test_resumption_scan_sessions () =
  let w = Lazy.force world in
  let probe = Scanner.Probe.create ~offer_ticket:false ~seed:"resume-test" w in
  let domains = subset_domains [ "yahoo.com"; "netflix.com" ] in
  let results =
    Scanner.Resumption_scan.run probe ~mode:Scanner.Resumption_scan.Session_ids
      ~max_delay:(30 * 60) ~domains ()
  in
  Alcotest.(check int) "two results" 2 (List.length results);
  List.iter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      Alcotest.(check bool) "https" true r.Scanner.Resumption_scan.https;
      Alcotest.(check bool) "supports ids" true r.Scanner.Resumption_scan.supports;
      Alcotest.(check bool) "resumed at 1s" true r.Scanner.Resumption_scan.resumed_at_1s;
      match r.Scanner.Resumption_scan.max_honored with
      | Some h ->
          (* Notables cache sessions for 5 minutes. *)
          Alcotest.(check bool) "bounded by cache lifetime" true (h <= 10 * 60)
      | None -> Alcotest.fail "no honored delay recorded")
    results

let test_resumption_scan_tickets () =
  let w = Lazy.force world in
  let probe = Scanner.Probe.create ~seed:"resume-ticket-test" w in
  let domains = subset_domains [ "google.com" ] in
  let results =
    Scanner.Resumption_scan.run probe ~mode:Scanner.Resumption_scan.Tickets
      ~max_delay:(50 * 60) ~domains ()
  in
  match results with
  | [ r ] ->
      Alcotest.(check bool) "issued ticket" true r.Scanner.Resumption_scan.supports;
      Alcotest.(check bool) "hint recorded" true
        (r.Scanner.Resumption_scan.hint = Some (28 * 3600));
      (* Google accepts far beyond our truncated walk. *)
      Alcotest.(check bool) "honored through the walk" true
        (match r.Scanner.Resumption_scan.max_honored with Some h -> h >= 45 * 60 | None -> false)
  | _ -> Alcotest.fail "expected one result"

(* --- Daily scan --------------------------------------------------------------------------- *)

let test_daily_scan () =
  (* A private world: the campaign moves the clock by days. *)
  let w =
    Simnet.World.create
      ~config:{ world_config with Simnet.World.seed = "daily-test"; n_domains = 1500 }
      ()
  in
  let days = 4 in
  let campaign = Campaign_run.run ~jobs:1 w ~days in
  Alcotest.(check int) "day count" days campaign.Scanner.Daily_scan.n_days;
  Alcotest.(check int) "series per domain" 1500 (Array.length campaign.Scanner.Daily_scan.series);
  (* yahoo: static STEK, same id on every present day. *)
  let yahoo =
    Array.to_list campaign.Scanner.Daily_scan.series
    |> List.find (fun (s : Scanner.Daily_scan.domain_series) ->
           String.equal s.Scanner.Daily_scan.domain "yahoo.com")
  in
  let yahoo_steks =
    Array.to_list yahoo.Scanner.Daily_scan.days
    |> List.filter_map (fun (r : Scanner.Daily_scan.day_record) -> r.Scanner.Daily_scan.stek_id)
  in
  Alcotest.(check int) "yahoo scanned daily" days (List.length yahoo_steks);
  Alcotest.(check bool) "yahoo STEK constant" true
    (match yahoo_steks with
    | first :: rest -> List.for_all (String.equal first) rest
    | [] -> false);
  Alcotest.(check bool) "yahoo trusted" true yahoo.Scanner.Daily_scan.trusted;
  (* google: 14h rotation, so 4 days must show several STEKs. *)
  let google =
    Array.to_list campaign.Scanner.Daily_scan.series
    |> List.find (fun (s : Scanner.Daily_scan.domain_series) ->
           String.equal s.Scanner.Daily_scan.domain "google.com")
  in
  let google_steks =
    Array.to_list google.Scanner.Daily_scan.days
    |> List.filter_map (fun (r : Scanner.Daily_scan.day_record) -> r.Scanner.Daily_scan.stek_id)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "google STEK rotates" true (List.length google_steks >= 3)

let test_campaign_save_load () =
  let w =
    Simnet.World.create
      ~config:{ world_config with Simnet.World.seed = "persist-test"; n_domains = 1500 }
      ()
  in
  let campaign = Campaign_run.run ~jobs:1 w ~days:3 in
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scanner.Daily_scan.save campaign path;
      match Scanner.Daily_scan.load path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check int) "days preserved" campaign.Scanner.Daily_scan.n_days
            loaded.Scanner.Daily_scan.n_days;
          Alcotest.(check int) "series preserved"
            (Array.length campaign.Scanner.Daily_scan.series)
            (Array.length loaded.Scanner.Daily_scan.series);
          (* Analyses agree on the round-tripped data. *)
          let spans t = Analysis.Lifetime.analyze ~field:Analysis.Lifetime.Stek t in
          Alcotest.(check bool) "spans" true (spans campaign = spans loaded);
          Alcotest.(check bool) "per-series records equal" true
            (Array.for_all2
               (fun (x : Scanner.Daily_scan.domain_series) (y : Scanner.Daily_scan.domain_series) ->
                 x.Scanner.Daily_scan.domain = y.Scanner.Daily_scan.domain
                 && x.Scanner.Daily_scan.days = y.Scanner.Daily_scan.days)
               campaign.Scanner.Daily_scan.series loaded.Scanner.Daily_scan.series))

(* A property over the campaign archive: any well-formed campaign value
   survives save/load exactly — including weights like 1000/7 that the
   old %.6f formatting truncated. *)
let campaign_gen =
  QCheck2.Gen.(
    let hex = map (fun n -> Printf.sprintf "%x" (abs n + 1)) big_nat in
    let* n_days = int_range 1 4 in
    let* start_day = int_range 0 20_000 in
    let day_record day =
      let* present = bool in
      let* default_ok = bool in
      let* stek_id = option hex in
      let* ticket_hint = option (int_range 0 1_000_000) in
      let* ecdhe_value = option hex in
      let* dhe_ok = bool in
      let* dhe_value = option hex in
      return
        {
          Scanner.Daily_scan.day;
          present;
          default_ok;
          stek_id;
          ticket_hint;
          ecdhe_value;
          dhe_ok;
          dhe_value;
        }
    in
    let series i =
      let* rank = int_range 1 1_000_000 in
      let* num = int_range 1 100_000 in
      let* den = int_range 1 13 in
      let* trusted = bool in
      let* stable = bool in
      let* days = flatten_l (List.init n_days day_record) in
      return
        {
          Scanner.Daily_scan.domain = Printf.sprintf "d%d.example" i;
          rank;
          weight = float_of_int num /. float_of_int den;
          trusted;
          stable;
          days = Array.of_list days;
        }
    in
    let* n_series = int_range 1 5 in
    let* series = flatten_l (List.init n_series series) in
    return { Scanner.Daily_scan.start_day; n_days; series = Array.of_list series })

let prop_campaign_roundtrip =
  QCheck2.Test.make ~name:"campaign save/load roundtrip" ~count:100 campaign_gen (fun t ->
      let path = Filename.temp_file "tlsharm" ".campaign.csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Scanner.Daily_scan.save t path;
          match Scanner.Daily_scan.load path with Ok t' -> t' = t | Error _ -> false))

(* Fixtures are framed the way every archive writer frames its output. *)
let write_file = Durable.Atomic_io.write

let test_load_rejects_bad_metadata () =
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path ("#tlsharm-campaign,start_day=3,n_days=0\n" ^ Scanner.Daily_scan.csv_header ^ "\n");
      (match Scanner.Daily_scan.load path with
      | Ok _ -> Alcotest.fail "n_days=0 must be rejected"
      | Error e -> Alcotest.(check bool) "mentions n_days" true (String.length e > 0));
      write_file path
        ("#tlsharm-campaign,start_day=-1,n_days=2\n" ^ Scanner.Daily_scan.csv_header ^ "\n");
      match Scanner.Daily_scan.load path with
      | Ok _ -> Alcotest.fail "negative start_day must be rejected"
      | Error _ -> ())

let test_load_rejects_bad_ticket_hint () =
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        ("#tlsharm-campaign,start_day=0,n_days=2\n" ^ Scanner.Daily_scan.csv_header ^ "\n"
       ^ "a.example,1,1,true,true,0,true,true,ab,zz,,false,\n");
      match Scanner.Daily_scan.load path with
      | Ok _ -> Alcotest.fail "a ticket hint of zz must be rejected"
      | Error e ->
          Alcotest.(check bool) "a bad row" true (String.starts_with ~prefix:"campaign: bad row" e))

let test_load_rejects_out_of_range_day () =
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        ("#tlsharm-campaign,start_day=0,n_days=2\n" ^ Scanner.Daily_scan.csv_header ^ "\n"
       ^ "a.example,1,1,true,true,5,true,true,,,,false,\n");
      match Scanner.Daily_scan.load path with
      | Ok _ -> Alcotest.fail "day 5 of a 2-day campaign must be rejected"
      | Error e -> Alcotest.(check bool) "error mentions range" true (String.length e > 0))

let test_load_rejects_unframed () =
  let body =
    "#tlsharm-campaign,start_day=0,n_days=1\n" ^ Scanner.Daily_scan.csv_header ^ "\n"
    ^ "a.example,1,1,true,true,0,true,true,,,,false,\n"
  in
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc body;
      close_out oc;
      (match Scanner.Daily_scan.load path with
      | Ok _ -> Alcotest.fail "a campaign without the durable frame must not load"
      | Error e ->
          Alcotest.(check bool) "names the missing frame" true
            (String.starts_with ~prefix:"campaign: not a durable" e));
      (match Scanner.Observation.read_csv path with
      | Ok _ -> Alcotest.fail "observations without the durable frame must not load"
      | Error e ->
          Alcotest.(check bool) "names the missing frame" true
            (String.starts_with ~prefix:"observations: not a durable" e));
      write_file path body;
      match Scanner.Daily_scan.load path with
      | Ok t -> Alcotest.(check int) "framed, it loads" 1 (Array.length t.Scanner.Daily_scan.series)
      | Error e -> Alcotest.fail e)

let test_load_rejects_missing_or_repeated_row () =
  let path = Filename.temp_file "tlsharm" ".campaign.csv" in
  let row day = Printf.sprintf "a.example,1,1,true,true,%d,true,true,,,,false,\n" day in
  let load rows =
    write_file path
      ("#tlsharm-campaign,start_day=0,n_days=2\n" ^ Scanner.Daily_scan.csv_header ^ "\n"
     ^ String.concat "" rows);
    Scanner.Daily_scan.load path
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match load [ row 0 ] with
      | Ok _ -> Alcotest.fail "a domain missing day 1 must not load"
      | Error e -> Alcotest.(check string) "missing row" "campaign: no row for a.example day 1" e);
      (match load [ row 0; row 0; row 1 ] with
      | Ok _ -> Alcotest.fail "a repeated (domain, day) must not load"
      | Error e ->
          Alcotest.(check string) "repeated row" "campaign: repeated row for a.example day 0" e);
      match load [ row 1; row 0 ] with
      | Ok t -> Alcotest.(check int) "every day once, any order" 2 t.Scanner.Daily_scan.n_days
      | Error e -> Alcotest.fail e)

(* --- Parallel campaign ------------------------------------------------------------------------ *)

let parallel_world_config =
  { world_config with Simnet.World.seed = "parallel-test"; n_domains = 1500 }

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_dir f =
  let dir = Filename.temp_file "tlsharm" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let archive_bytes campaign =
  let path = Filename.temp_file "tlsharm" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scanner.Daily_scan.save campaign path;
      slurp path)

let test_shards_partition () =
  let w = Simnet.World.create ~config:parallel_world_config () in
  let shards = Scanner.Parallel_campaign.shards w in
  let total = Array.fold_left (fun acc s -> acc + Array.length s.Scanner.Parallel_campaign.members) 0 shards in
  Alcotest.(check int) "every domain in exactly one shard (by count)"
    (Array.length (Simnet.World.domains w))
    total;
  let seen = Hashtbl.create 2048 in
  Array.iter
    (fun (s : Scanner.Parallel_campaign.shard) ->
      Array.iter
        (fun d ->
          let name = Simnet.World.domain_name d in
          Alcotest.(check bool) ("domain appears once: " ^ name) false (Hashtbl.mem seen name);
          Hashtbl.replace seen name ())
        s.Scanner.Parallel_campaign.members)
    shards;
  (* Connectivity: a shared-state key never spans two shards. *)
  let key_shard = Hashtbl.create 2048 in
  Array.iter
    (fun (s : Scanner.Parallel_campaign.shard) ->
      Array.iter
        (fun d ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt key_shard k with
              | Some owner ->
                  Alcotest.(check int) ("key stays in one shard: " ^ k) owner
                    s.Scanner.Parallel_campaign.shard_id
              | None -> Hashtbl.replace key_shard k s.Scanner.Parallel_campaign.shard_id)
            (Simnet.World.domain_shard_keys w d))
        s.Scanner.Parallel_campaign.members)
    shards

let test_parallel_deterministic_in_jobs () =
  (* The tentpole guarantee: worker count cannot change the result. Fresh
     worlds per run — campaigns mutate server state. *)
  let days = 2 in
  let run jobs =
    let w = Simnet.World.create ~config:parallel_world_config () in
    Campaign_run.run ~jobs w ~days
  in
  let one = run 1 in
  let four = run 4 in
  Alcotest.(check int) "day count" days one.Scanner.Daily_scan.n_days;
  Alcotest.(check int) "all domains scanned"
    (Array.length (Simnet.World.domains (Simnet.World.create ~config:parallel_world_config ())))
    (Array.length one.Scanner.Daily_scan.series);
  Alcotest.(check bool) "1-worker and 4-worker series identical" true
    (one.Scanner.Daily_scan.series = four.Scanner.Daily_scan.series
    && one.Scanner.Daily_scan.start_day = four.Scanner.Daily_scan.start_day);
  (* Down to the archived bytes, not just structural equality. *)
  Alcotest.(check bool) "1-worker and 4-worker archives byte-identical" true
    (String.equal (archive_bytes one) (archive_bytes four))

let test_pool_runs_each_index_once () =
  let check ~n jobs =
    let hits = Array.init n (fun _ -> Atomic.make 0) in
    Scanner.Pool.run ~jobs n (fun i -> Atomic.incr hits.(i));
    Array.iteri
      (fun i h ->
        Alcotest.(check int) (Printf.sprintf "n=%d jobs=%d index %d" n jobs i) 1 (Atomic.get h))
      hits
  in
  let n = 37 in
  List.iter (check ~n) [ 1; 2; 4; n + 3 ];
  List.iter (check ~n:0) [ 1; 4 ];
  (* A raising item stops the pool and surfaces in the caller. *)
  match Scanner.Pool.run ~jobs:2 n (fun i -> if i = 5 then failwith "item 5") with
  | () -> Alcotest.fail "the item's exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "first failure re-raised" "item 5" msg

let prop_shard_balance =
  (* The LPT packing bound: a shard can exceed twice the mean weight only
     by holding a single unsplittable component that is itself heavier
     than the mean — shared-state components cannot be split across
     shards, so that case is irreducible. *)
  QCheck2.Test.make ~name:"no shard exceeds 2x mean weight (unsplittable giants exempt)"
    ~count:6
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1500 2200))
    (fun (seed, n_domains) ->
      let config =
        {
          Simnet.World.default_config with
          Simnet.World.seed = Printf.sprintf "balance-%d" seed;
          n_domains;
        }
      in
      let w = Simnet.World.create ~config () in
      let shards = Scanner.Parallel_campaign.shards w in
      let total =
        Array.fold_left (fun acc s -> acc +. s.Scanner.Parallel_campaign.weight) 0.0 shards
      in
      let mean = total /. float (max 1 (Array.length shards)) in
      Array.for_all
        (fun (s : Scanner.Parallel_campaign.shard) ->
          s.Scanner.Parallel_campaign.weight <= (2.0 *. mean) +. 1e-6
          || s.Scanner.Parallel_campaign.max_component > mean)
        shards)

(* --- Streaming sink ------------------------------------------------------------------------- *)

let make_sink w dir ~days =
  let start_day = Simnet.Clock.now (Simnet.World.clock w) / Simnet.Clock.day in
  match
    Scanner.Stream_sink.create ~dir
      ~manifest:[ ("start_day", string_of_int start_day); ("n_days", string_of_int days) ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_stream_matches_archive () =
  (* A campaign streamed into a directory of its own reassembles to the
     byte-identical CSV the same campaign exports through a temporary
     run log. *)
  with_temp_dir (fun dir ->
      let days = 2 in
      let direct =
        archive_bytes
          (Campaign_run.run ~jobs:1 (Simnet.World.create ~config:parallel_world_config ()) ~days)
      in
      let w = Simnet.World.create ~config:parallel_world_config () in
      let sink = make_sink w dir ~days in
      Scanner.Parallel_campaign.run ~jobs:1 ~sink w ~days ();
      Alcotest.(check bool) "rows streamed" true (Scanner.Stream_sink.rows_written sink > 0);
      match Scanner.Daily_scan.load_stream dir with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          Alcotest.(check bool) "streamed archive is byte-identical" true
            (String.equal (archive_bytes loaded) direct))

let test_stream_jobs_invariant () =
  (* Worker count must not leak into the streamed bytes: every per-shard
     spool is byte-identical between jobs=1 and jobs=4. *)
  let days = 2 in
  let run_streamed jobs dir =
    let w = Simnet.World.create ~config:parallel_world_config () in
    Scanner.Parallel_campaign.run ~jobs ~sink:(make_sink w dir ~days) w ~days ()
  in
  with_temp_dir (fun dir1 ->
      with_temp_dir (fun dir4 ->
          run_streamed 1 dir1;
          run_streamed 4 dir4;
          let names d =
            match Scanner.Stream_sink.stream_names ~dir:d with
            | Ok n -> n
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check (list string)) "same stream names" (names dir1) (names dir4);
          Alcotest.(check bool) "one spool per shard" true (List.length (names dir1) > 1);
          List.iter
            (fun n ->
              Alcotest.(check bool)
                ("spool bytes identical across jobs: " ^ n)
                true
                (String.equal
                   (slurp (Filename.concat dir1 ("rows-" ^ n)))
                   (slurp (Filename.concat dir4 ("rows-" ^ n)))))
            (names dir1);
          (* And the reassembled archive equals a temporary-log run's. *)
          let w = Simnet.World.create ~config:parallel_world_config () in
          let reference = archive_bytes (Campaign_run.run ~jobs:1 w ~days) in
          match Scanner.Daily_scan.load_stream dir4 with
          | Error e -> Alcotest.fail e
          | Ok loaded ->
              Alcotest.(check bool) "streamed parallel archive byte-identical" true
                (String.equal (archive_bytes loaded) reference)))

(* A run given no directory logs to a temporary one, which must be gone
   once the run ends, whether its body returned or raised. *)
let test_temporary_log_removed () =
  let manifest = [ ("start_day", "0"); ("n_days", "1") ] in
  let seen = ref "" in
  let write sink =
    seen := Scanner.Stream_sink.dir sink;
    let s = Scanner.Stream_sink.stream sink "shard-0000" in
    Scanner.Stream_sink.append_day s ~rows:0 "day=0\nrows=0\n";
    Alcotest.(check bool) "log written while the run lasts" true
      (Sys.file_exists (Filename.concat !seen "rows-shard-0000"))
  in
  (match Scanner.Stream_sink.with_sink ~manifest (fun sink -> Ok (write sink)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "removed after the body returns" false (Sys.file_exists !seen);
  (match
     Scanner.Stream_sink.with_sink ~manifest (fun sink ->
         write sink;
         failwith "run crashed")
   with
  | _ -> Alcotest.fail "the body's exception must propagate"
  | exception Failure m -> Alcotest.(check string) "the body's own exception" "run crashed" m);
  Alcotest.(check bool) "removed after the body raises" false (Sys.file_exists !seen)

let test_stream_incomplete_rejected () =
  (* A footer-less spool is an interrupted run: the loader must refuse it
     and point at resume, never load a partial archive. *)
  with_temp_dir (fun dir ->
      let w = Simnet.World.create ~config:parallel_world_config () in
      let sink = make_sink w dir ~days:3 in
      let s = Scanner.Stream_sink.stream sink "shard-0000" in
      Scanner.Stream_sink.append_day s ~rows:0 "day=0\nrows=0\n";
      (* no [finish]: simulates a crash between days *)
      match Scanner.Daily_scan.load_stream dir with
      | Ok _ -> Alcotest.fail "an interrupted stream must not load"
      | Error e ->
          let contains hay needle =
            let lh = String.length hay and ln = String.length needle in
            let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "error directs to resume" true (contains e "resume"))

(* --- Cross-domain probe --------------------------------------------------------------------- *)

let test_cross_probe () =
  let w =
    Simnet.World.create
      ~config:{ world_config with Simnet.World.seed = "cross-test"; n_domains = 1500 }
      ()
  in
  let cloudflare =
    Array.to_list (Simnet.World.domains w)
    |> List.filter (fun d -> String.equal (Simnet.World.domain_operator d) "cloudflare")
  in
  Alcotest.(check bool) "several cloudflare domains" true (List.length cloudflare >= 4);
  let result = Scanner.Cross_probe.run w ~domains:(Some cloudflare) () in
  Alcotest.(check bool) "participants resumed" true
    (List.length result.Scanner.Cross_probe.participants >= 2);
  (* Domains behind the same pod share a cache, so edges must appear. *)
  Alcotest.(check bool) "cross-domain edges found" true
    (result.Scanner.Cross_probe.edges <> []);
  (* And the edges must stay inside the operator. *)
  List.iter
    (fun (e : Scanner.Cross_probe.edge) ->
      let op n =
        match Simnet.World.find_domain w n with
        | Some d -> Simnet.World.domain_operator d
        | None -> "?"
      in
      Alcotest.(check string) "edge within operator" (op e.Scanner.Cross_probe.from_domain)
        (op e.Scanner.Cross_probe.to_domain))
    result.Scanner.Cross_probe.edges

(* --- Cross-vantage ----------------------------------------------------------------- *)

let test_cross_vantage_jobs_invariant () =
  let cfg =
    {
      Scanner.Cross_vantage.base = world_config;
      regions = Simnet.Region.take 2;
      days = 1;
    }
  in
  let one = Scanner.Cross_vantage.run ~jobs:1 cfg in
  let four = Scanner.Cross_vantage.run ~jobs:4 cfg in
  Alcotest.(check bool) "jobs 1 and 4 byte-identical" true
    (Scanner.Cross_vantage.rows one = Scanner.Cross_vantage.rows four);
  (* Every configured region appears, and rows carry their vantage. *)
  let rows = Scanner.Cross_vantage.rows one in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " observed") true
        (List.exists (fun (c : Scanner.Observation.conn) -> c.Scanner.Observation.region = r) rows))
    (Scanner.Cross_vantage.regions one);
  (* And the archive round-trips through the observation CSV. *)
  let path = Filename.temp_file "tlsharm-cv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scanner.Cross_vantage.save one path;
      match Scanner.Cross_vantage.load path with
      | Ok read -> Alcotest.(check bool) "save/load roundtrip" true (read = rows)
      | Error e -> Alcotest.fail e)

let test_cross_vantage_rejects_bad_config () =
  let base = world_config in
  (match
     Scanner.Cross_vantage.run
       { Scanner.Cross_vantage.base; regions = [ "mars-base" ]; days = 1 }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown region accepted");
  match
    Scanner.Cross_vantage.run { Scanner.Cross_vantage.base; regions = []; days = 1 }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty region list accepted"

(* The observation CSV has one header. A pre-region archive (14-column
   header, no region column) is refused with a typed error naming the
   row, never loaded with guessed values. *)
let test_pre_region_csv_loads () =
  let first n line = String.concat "," (List.filteri (fun i _ -> i < n) (String.split_on_char ',' line)) in
  let row14 = first 14 (Scanner.Observation.to_csv_row sample_conn) in
  Alcotest.(check bool) "14-column row refused" true (Scanner.Observation.of_csv_row row14 = None);
  let path = Filename.temp_file "tlsharm-v14" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Durable.Atomic_io.write path (first 14 Scanner.Observation.csv_header ^ "\n" ^ row14 ^ "\n");
      match Scanner.Observation.read_csv path with
      | Ok _ -> Alcotest.fail "a 14-column archive must not load"
      | Error e ->
          Alcotest.(check bool) "a bad row" true (String.starts_with ~prefix:"bad CSV row" e))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "scanner"
    [
      ( "observations",
        [
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv file roundtrip" `Quick test_csv_file_roundtrip;
          Alcotest.test_case "csv rejects malformed fields" `Quick
            test_csv_rejects_malformed_fields;
        ] );
      qsuite "observation-properties" [ prop_csv_roundtrip ];
      ( "burst",
        [
          Alcotest.test_case "repeats" `Quick test_repeats;
          Alcotest.test_case "scan" `Quick test_burst_scan;
          Alcotest.test_case "static stek detection" `Quick test_burst_detects_static_stek;
        ] );
      ( "resumption",
        [
          Alcotest.test_case "session ids" `Quick test_resumption_scan_sessions;
          Alcotest.test_case "tickets" `Quick test_resumption_scan_tickets;
        ] );
      ( "daily",
        [
          Alcotest.test_case "campaign" `Slow test_daily_scan;
          Alcotest.test_case "save/load" `Slow test_campaign_save_load;
          Alcotest.test_case "load rejects bad metadata" `Quick test_load_rejects_bad_metadata;
          Alcotest.test_case "load rejects bad ticket hint" `Quick
            test_load_rejects_bad_ticket_hint;
          Alcotest.test_case "load rejects out-of-range day" `Quick
            test_load_rejects_out_of_range_day;
          Alcotest.test_case "load rejects unframed archives" `Quick test_load_rejects_unframed;
          Alcotest.test_case "load rejects missing or repeated rows" `Quick
            test_load_rejects_missing_or_repeated_row;
        ] );
      qsuite "campaign-properties" [ prop_campaign_roundtrip ];
      ( "parallel",
        [
          Alcotest.test_case "shards partition the world" `Slow test_shards_partition;
          Alcotest.test_case "deterministic in worker count" `Slow
            test_parallel_deterministic_in_jobs;
          Alcotest.test_case "pool runs each index once" `Quick test_pool_runs_each_index_once;
        ] );
      qsuite "shard-properties" [ prop_shard_balance ];
      ( "streaming",
        [
          Alcotest.test_case "streamed serial matches archive" `Slow test_stream_matches_archive;
          Alcotest.test_case "spool bytes invariant in worker count" `Slow
            test_stream_jobs_invariant;
          Alcotest.test_case "incomplete stream rejected" `Quick test_stream_incomplete_rejected;
          Alcotest.test_case "temporary log removed on return and raise" `Quick
            test_temporary_log_removed;
        ] );
      ("cross-probe", [ Alcotest.test_case "cloudflare" `Slow test_cross_probe ]);
      ( "cross-vantage",
        [
          Alcotest.test_case "jobs invariant + roundtrip" `Slow
            test_cross_vantage_jobs_invariant;
          Alcotest.test_case "rejects bad config" `Quick test_cross_vantage_rejects_bad_config;
          Alcotest.test_case "pre-region csv loads" `Quick test_pre_region_csv_loads;
        ] );
    ]
