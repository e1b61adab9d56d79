(* Tests for the fault-injection layer: schedule determinism, retry
   exhaustion vs. outage recovery, the stream-isolation invariant
   (enabling faults leaves surviving observations byte-identical),
   worker-count invariance of faulty parallel campaigns, funnel
   arithmetic, and the refusal of pre-fault CSV rows. *)

let world_config =
  { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "faults-test" }

let world = lazy (Simnet.World.create ~config:world_config ())

(* Hostnames that resolve to an endpoint — the only ones the injector
   ever faults. *)
let hosted_names w =
  Array.to_list (Simnet.World.domains w)
  |> List.map Simnet.World.domain_name
  |> List.filter (fun n -> Simnet.World.endpoint_info w n <> None)

(* An outage-only profile makes the recovery test crisp: the sole
   possible fault is [Endpoint_outage], so any probe outside a window
   must succeed on the first attempt. *)
let outage_only =
  {
    Faults.Profile.name = "outage-only";
    default_rates =
      { Faults.Profile.zero_rates with outage_p = 0.5; outage_duration = (1200, 7200) };
    per_operator = [];
  }

(* --- Deterministic schedule ---------------------------------------------------------- *)

let decision_fingerprint inj ~hostnames =
  List.concat_map
    (fun h ->
      List.concat_map
        (fun time ->
          List.map
            (fun attempt ->
              match Faults.Injector.decide inj ~hostname:h ~time ~attempt with
              | Faults.Injector.Pass -> "pass"
              | Faults.Injector.Slow s -> Printf.sprintf "slow:%d" s
              | Faults.Injector.Fault f -> Faults.Fault.to_string f)
            [ 0; 1; 2 ])
        [ 0; 3600; 86_400; 86_401; 7 * 86_400 ])
    hostnames

let test_schedule_deterministic () =
  let w = Lazy.force world in
  let hostnames = hosted_names w in
  let fp seed =
    decision_fingerprint
      (Faults.Injector.create ~seed ~profile:Faults.Profile.flaky w)
      ~hostnames
  in
  Alcotest.(check (list string)) "same seed, same timeline" (fp "faults") (fp "faults");
  Alcotest.(check bool) "different seed, different timeline" true (fp "faults" <> fp "other");
  (* The flaky profile must actually fire on a 1500-domain world. *)
  let faulted = List.filter (fun d -> d <> "pass") (fp "faults") in
  Alcotest.(check bool) "flaky profile injects something" true (faulted <> [])

let test_none_profile_never_fires () =
  let w = Lazy.force world in
  let inj = Faults.Injector.create ~profile:Faults.Profile.none w in
  List.iter
    (fun d -> Alcotest.(check string) "none profile passes" "pass" d)
    (decision_fingerprint inj ~hostnames:(hosted_names w))

(* --- Retry exhaustion vs. outage recovery -------------------------------------------- *)

(* Find a hostname with one epoch inside a scheduled window and another
   in the clear: the within-window probe must exhaust its retries on
   [Endpoint_outage]; the clear-sky probe (same net, same injector) must
   succeed first try — the daily-scan recovery story in miniature. *)
let find_outage inj ~hostnames =
  let epoch = Faults.Injector.outage_epoch in
  let mid e = (e * epoch) + (epoch / 2) in
  let down h t =
    Faults.Injector.endpoint_outage_at inj ~hostname:h ~time:t
    && Faults.Injector.endpoint_outage_at inj ~hostname:h ~time:(t + 120)
  in
  let up h t =
    (not (Faults.Injector.endpoint_outage_at inj ~hostname:h ~time:t))
    && not (Faults.Injector.endpoint_outage_at inj ~hostname:h ~time:(t + 120))
  in
  let epochs = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let rec scan = function
    | [] -> Alcotest.fail "no outage window found (outage_p too low?)"
    | h :: rest -> (
        match
          ( List.find_opt (fun e -> down h (mid e)) epochs,
            List.find_opt (fun e -> up h (mid e)) epochs )
        with
        | Some e_down, Some e_up -> (h, mid e_down, mid e_up)
        | _ -> scan rest)
  in
  scan hostnames

let test_retry_exhaustion_and_recovery () =
  let w = Lazy.force world in
  let policy = Faults.Retry.default in
  let inj = Faults.Injector.create ~profile:outage_only ~retry:policy w in
  let host, t_out, t_clear = find_outage inj ~hostnames:(hosted_names w) in
  let net = Faults.Net.create ~injector:inj () in
  let calls = ref 0 in
  let connect () =
    incr calls;
    Ok "hello"
  in
  (match Faults.Net.attempt net ~hostname:host ~now:t_out ~connect with
  | Error (f, attempts) ->
      Alcotest.(check string) "lost to the outage" "outage" (Faults.Fault.to_string f);
      Alcotest.(check int) "all attempts spent" policy.Faults.Retry.max_attempts attempts
  | Ok _ -> Alcotest.fail "probe inside an outage window succeeded");
  Alcotest.(check int) "exactly one (shadow) world call on exhaustion" 1 !calls;
  calls := 0;
  (match Faults.Net.attempt net ~hostname:host ~now:t_clear ~connect with
  | Ok (v, attempts) ->
      Alcotest.(check string) "real result returned" "hello" v;
      Alcotest.(check int) "clear sky needs one attempt" 1 attempts
  | Error (f, _) -> Alcotest.failf "clear-sky probe failed: %s" (Faults.Fault.to_string f));
  Alcotest.(check int) "exactly one real world call on success" 1 !calls;
  let totals = Faults.Funnel.totals (Faults.Net.funnel net) in
  Alcotest.(check int) "funnel saw both probes" 2 totals.Faults.Funnel.t_probes;
  Alcotest.(check int) "funnel counted the retries"
    (policy.Faults.Retry.max_attempts - 1)
    totals.Faults.Funnel.t_retries;
  Alcotest.(check (list (pair string int)))
    "loss attributed to the outage"
    [ ("outage", 1) ]
    (List.map (fun (f, n) -> (Faults.Fault.to_string f, n)) totals.Faults.Funnel.t_losses)

let test_world_errors_are_final () =
  (* Genuine world errors (NXDOMAIN etc.) are not injector noise:
     retrying them would desync RNG streams, so they fail on attempt 1
     even with retries configured. *)
  let w = Lazy.force world in
  let inj = Faults.Injector.create ~profile:Faults.Profile.none ~retry:Faults.Retry.default w in
  let net = Faults.Net.create ~injector:inj () in
  let calls = ref 0 in
  let connect () =
    incr calls;
    Error Simnet.World.No_such_domain
  in
  (match Faults.Net.attempt net ~hostname:"ghost.example" ~now:0 ~connect with
  | Error (Faults.Fault.No_such_domain, 1) -> ()
  | Error (f, n) ->
      Alcotest.failf "expected nxdomain after 1 attempt, got %s after %d"
        (Faults.Fault.to_string f) n
  | Ok _ -> Alcotest.fail "nxdomain succeeded");
  Alcotest.(check int) "single world call" 1 !calls

let test_backoff_deterministic_and_bounded () =
  List.iter
    (fun attempt ->
      let b = Faults.Retry.backoff ~key:"probe|example.com|0" ~attempt in
      Alcotest.(check int) "backoff is a pure function" b
        (Faults.Retry.backoff ~key:"probe|example.com|0" ~attempt);
      Alcotest.(check bool) "at least a second" true (b >= 1);
      Alcotest.(check bool) "never above 1.5x the 30s cap" true
        (float_of_int b <= (1.5 *. 30.) +. 1.))
    [ 0; 1; 2; 3; 10 ]

(* --- Stream isolation ----------------------------------------------------------------- *)

let campaign_config seed = { world_config with Simnet.World.seed }

let test_fault_rng_isolation () =
  (* The tentpole invariant: enabling faults must not perturb any probe
     that gets through. Run the same world clean and faulty; every
     (domain, day) record whose faulty sweeps both succeeded must be
     field-identical to the clean run's. Checked under the aggressive
     profile and under the default one the CLI ships. *)
  let days = 2 in
  let fresh () = Simnet.World.create ~config:(campaign_config "isolation-test") () in
  let index (scan : Scanner.Daily_scan.t) =
    let tbl = Hashtbl.create 4096 in
    Array.iter
      (fun (ds : Scanner.Daily_scan.domain_series) ->
        Array.iter
          (fun (r : Scanner.Daily_scan.day_record) ->
            Hashtbl.replace tbl (ds.Scanner.Daily_scan.domain, r.Scanner.Daily_scan.day) r)
          ds.Scanner.Daily_scan.days)
      scan.Scanner.Daily_scan.series;
    tbl
  in
  let clean_ix = index (Scanner.Parallel_campaign.collect ~jobs:1 (fresh ()) ~days) in
  List.iter
    (fun (profile : Faults.Profile.t) ->
      let name = profile.Faults.Profile.name in
      let w = fresh () in
      let injector = Faults.Injector.create ~profile w in
      let funnel = Faults.Funnel.create () in
      let faulty =
        Scanner.Parallel_campaign.collect ~jobs:1 ~injector ~funnel w ~days
      in
      let checked = ref 0 and mismatched = ref 0 in
      Hashtbl.iter
        (fun key (r : Scanner.Daily_scan.day_record) ->
          if r.Scanner.Daily_scan.default_ok && r.Scanner.Daily_scan.dhe_ok then (
            incr checked;
            match Hashtbl.find_opt clean_ix key with
            | Some c when c = r -> ()
            | _ -> incr mismatched))
        (index faulty);
      Alcotest.(check bool) (name ^ ": some probes survived injection") true (!checked > 0);
      Alcotest.(check int) (name ^ ": surviving records identical to clean run") 0 !mismatched;
      let totals = Faults.Funnel.totals funnel in
      Alcotest.(check bool) (name ^ " profile lost probes") true (Faults.Funnel.lost totals > 0);
      Alcotest.(check bool)
        (name ^ " profile retried probes")
        true (totals.Faults.Funnel.t_retries > 0))
    [ Faults.Profile.flaky; Faults.Profile.default ]

let test_faulty_parallel_campaign_worker_invariant () =
  let days = 2 in
  let run jobs =
    let w = Simnet.World.create ~config:(campaign_config "faulty-parallel-test") () in
    let injector = Faults.Injector.create ~profile:Faults.Profile.default w in
    let funnel = Faults.Funnel.create () in
    let t = Scanner.Parallel_campaign.collect ~jobs ~injector ~funnel w ~days in
    (t, funnel)
  in
  let one, f_one = run 1 in
  let four, f_four = run 4 in
  Alcotest.(check bool) "1- and 4-worker faulty series identical" true
    (one.Scanner.Daily_scan.series = four.Scanner.Daily_scan.series);
  Alcotest.(check bool) "funnel totals worker-invariant" true
    (Faults.Funnel.totals f_one = Faults.Funnel.totals f_four);
  Alcotest.(check (list int)) "funnel days worker-invariant" (Faults.Funnel.days f_one)
    (Faults.Funnel.days f_four);
  List.iter
    (fun day ->
      Alcotest.(check bool)
        (Printf.sprintf "day %d totals worker-invariant" day)
        true
        (Faults.Funnel.day_totals f_one ~day = Faults.Funnel.day_totals f_four ~day))
    (Faults.Funnel.days f_one);
  (* The default profile on 1500 domains over 2 days should lose
     something; otherwise this test exercises nothing. *)
  Alcotest.(check bool) "default profile lost probes" true
    (Faults.Funnel.lost (Faults.Funnel.totals f_one) > 0)

(* --- Byzantine faults ------------------------------------------------------------------ *)

let test_byzantine_classify_deterministic () =
  let keys = List.init 400 (Printf.sprintf "byz-key-%d") in
  let verdicts = List.map (fun key -> Faults.Byzantine.classify ~key) keys in
  Alcotest.(check bool) "pure function of key" true
    (List.for_all2
       (fun key v -> Faults.Byzantine.classify ~key = v)
       keys verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool) "always a byzantine cause" true (Faults.Fault.is_byzantine v))
    verdicts;
  (* Both classes must occur: mutations that break framing and mutations
     that survive the parsers are both realistic, and the classifier is
     only honest if the real codecs see both. *)
  let malformed = List.filter (( = ) Faults.Fault.Malformed_response) verdicts in
  Alcotest.(check bool) "some mutations break parsing" true (malformed <> []);
  Alcotest.(check bool) "some mutations parse as nonsense" true
    (List.length malformed < List.length verdicts)

let test_byzantine_mutate_bounded () =
  Array.iter
    (fun (name, _, template) ->
      List.iter
        (fun i ->
          let key = Printf.sprintf "mutate-%s-%d" name i in
          let m = Faults.Byzantine.mutate ~key template in
          Alcotest.(check string)
            "mutation is a pure function of key" m
            (Faults.Byzantine.mutate ~key template);
          Alcotest.(check bool) "output bounded by input + 32" true
            (String.length m <= String.length template + 32))
        [ 0; 1; 2; 3; 4 ])
    Faults.Byzantine.templates

let test_byzantine_profile_campaign () =
  (* The byzantine profile plays by the same rules as every other one:
     worker-count invariant, and surviving probes byte-identical to the
     clean run. New loss causes must actually show up in the funnel. *)
  let days = 2 in
  let config = campaign_config "byzantine-campaign-test" in
  let run jobs =
    let w = Simnet.World.create ~config () in
    let injector = Faults.Injector.create ~profile:Faults.Profile.byzantine w in
    let funnel = Faults.Funnel.create () in
    let t = Scanner.Parallel_campaign.collect ~jobs ~injector ~funnel w ~days in
    (t, funnel)
  in
  let one, f_one = run 1 in
  let four, f_four = run 4 in
  Alcotest.(check bool) "1- and 4-worker byzantine series identical" true
    (one.Scanner.Daily_scan.series = four.Scanner.Daily_scan.series);
  Alcotest.(check bool) "funnel totals worker-invariant" true
    (Faults.Funnel.totals f_one = Faults.Funnel.totals f_four);
  let losses = (Faults.Funnel.totals f_one).Faults.Funnel.t_losses in
  Alcotest.(check bool) "byzantine causes recorded" true
    (List.exists (fun (f, n) -> Faults.Fault.is_byzantine f && n > 0) losses);
  (* Surviving observations must match a clean run byte-for-byte. *)
  let clean = Scanner.Parallel_campaign.collect ~jobs:1 (Simnet.World.create ~config ()) ~days in
  let index (scan : Scanner.Daily_scan.t) =
    let tbl = Hashtbl.create 4096 in
    Array.iter
      (fun (ds : Scanner.Daily_scan.domain_series) ->
        Array.iter
          (fun (r : Scanner.Daily_scan.day_record) ->
            Hashtbl.replace tbl (ds.Scanner.Daily_scan.domain, r.Scanner.Daily_scan.day) r)
          ds.Scanner.Daily_scan.days)
      scan.Scanner.Daily_scan.series;
    tbl
  in
  let clean_ix = index clean in
  let mismatched = ref 0 and checked = ref 0 in
  Hashtbl.iter
    (fun key (r : Scanner.Daily_scan.day_record) ->
      if r.Scanner.Daily_scan.default_ok && r.Scanner.Daily_scan.dhe_ok then (
        incr checked;
        match Hashtbl.find_opt clean_ix key with
        | Some c when c = r -> ()
        | _ -> incr mismatched))
    (index one);
  Alcotest.(check bool) "some probes survived byzantine peers" true (!checked > 0);
  Alcotest.(check int) "survivors identical to clean run" 0 !mismatched

(* --- Circuit breaker ------------------------------------------------------------------- *)

(* The breaker trips after 5 consecutive injected faults and then caps
   the next 25 probes to a single attempt. *)
let test_breaker_opens_and_cools () =
  let b = Faults.Breaker.create () in
  let op = "operator-a" in
  let allowed () = Faults.Breaker.attempts_allowed b ~operator:op ~max_attempts:5 in
  Alcotest.(check int) "closed breaker allows full retries" 5 (allowed ());
  let faults =
    Faults.Fault.
      [ Connect_timeout; Tcp_reset; Malformed_response; Connect_timeout; Tcp_reset ]
  in
  List.iteri
    (fun i fault ->
      Alcotest.(check bool)
        (Printf.sprintf "closed after %d faults" i)
        false
        (Faults.Breaker.is_open b ~operator:op);
      Faults.Breaker.record b ~operator:op (Error fault))
    faults;
  Alcotest.(check bool) "fifth fault opens the breaker" true
    (Faults.Breaker.is_open b ~operator:op);
  (* While open, probes get exactly one attempt for 25 probes. *)
  for probe = 1 to 25 do
    Alcotest.(check int) (Printf.sprintf "open breaker caps probe %d" probe) 1 (allowed ())
  done;
  Alcotest.(check int) "cooldown expired, retries restored" 5 (allowed ());
  (* A success closes everything. *)
  List.iter (fun f -> Faults.Breaker.record b ~operator:op (Error f)) faults;
  Alcotest.(check bool) "re-armed" true (Faults.Breaker.is_open b ~operator:op);
  Faults.Breaker.record b ~operator:op (Ok ());
  Alcotest.(check bool) "success resets" false (Faults.Breaker.is_open b ~operator:op);
  Alcotest.(check int) "full retries after success" 5 (allowed ());
  (* Operators are independent. *)
  Alcotest.(check int) "other operators unaffected" 5
    (Faults.Breaker.attempts_allowed b ~operator:"operator-b" ~max_attempts:5)

let test_breaker_ignores_world_errors () =
  (* Ground-truth failures (NXDOMAIN, no TLS) say nothing about operator
     health; only injected faults count toward the trip threshold. *)
  let b = Faults.Breaker.create () in
  let op = "operator-c" in
  let injected n =
    for _ = 1 to n do
      Faults.Breaker.record b ~operator:op (Error Faults.Fault.Connect_timeout)
    done
  in
  injected 4;
  Faults.Breaker.record b ~operator:op (Error Faults.Fault.No_such_domain);
  injected 4;
  Alcotest.(check bool) "world errors reset the streak" false
    (Faults.Breaker.is_open b ~operator:op);
  Faults.Breaker.record b ~operator:op (Error Faults.Fault.Protocol_violation);
  Alcotest.(check bool) "five consecutive injected faults trip it" true
    (Faults.Breaker.is_open b ~operator:op);
  Faults.Breaker.record b ~operator:op (Error Faults.Fault.No_https);
  Alcotest.(check bool) "a world error closes an open breaker" false
    (Faults.Breaker.is_open b ~operator:op)

(* --- Funnel arithmetic ---------------------------------------------------------------- *)

let test_funnel_accounting () =
  let f = Faults.Funnel.create () in
  Faults.Funnel.record_success f ~day:3 ~attempts:1 ~slow:false;
  Faults.Funnel.record_success f ~day:3 ~attempts:3 ~slow:true;
  Faults.Funnel.record_failure f ~day:4 ~attempts:3 Faults.Fault.Tcp_reset;
  Faults.Funnel.record_failure f ~day:4 ~attempts:3 Faults.Fault.Tcp_reset;
  Faults.Funnel.record_failure f ~day:4 ~attempts:1 Faults.Fault.No_such_domain;
  let other = Faults.Funnel.create () in
  Faults.Funnel.record_success other ~day:4 ~attempts:2 ~slow:false;
  Faults.Funnel.absorb f other;
  let t = Faults.Funnel.totals f in
  Alcotest.(check int) "probes" 6 t.Faults.Funnel.t_probes;
  Alcotest.(check int) "attempts" 13 t.Faults.Funnel.t_attempts;
  Alcotest.(check int) "retries" 7 t.Faults.Funnel.t_retries;
  Alcotest.(check int) "successes" 3 t.Faults.Funnel.t_successes;
  Alcotest.(check int) "recovered" 2 t.Faults.Funnel.t_recovered;
  Alcotest.(check int) "slow" 1 t.Faults.Funnel.t_slow;
  Alcotest.(check int) "lost" 3 (Faults.Funnel.lost t);
  Alcotest.(check (list (pair string int)))
    "per-cause losses in Fault.all order"
    [ ("nxdomain", 1); ("reset", 2) ]
    (List.map (fun (f, n) -> (Faults.Fault.to_string f, n)) t.Faults.Funnel.t_losses);
  Alcotest.(check (list int)) "days" [ 3; 4 ] (Faults.Funnel.days f);
  let d4 = Faults.Funnel.day_totals f ~day:4 in
  Alcotest.(check int) "day-4 probes" 4 d4.Faults.Funnel.t_probes;
  Alcotest.(check int) "day-4 losses" 3 (Faults.Funnel.lost d4)

(* --- CSV compatibility ----------------------------------------------------------------- *)

(* A 12-column row as the pre-fault scanner wrote it: the observation CSV
   now has one header, so such a row is refused, not loaded with a
   guessed failure cause and attempt count. *)
let legacy_row obs =
  String.concat ","
    (List.filteri (fun i _ -> i < 12) (String.split_on_char ',' (Scanner.Observation.to_csv_row obs)))

let test_legacy_csv_rows () =
  let failed_obs = Scanner.Observation.failed_conn ~time:9 ~domain:"down.example" () in
  Alcotest.(check bool) "12-column row refused" true
    (Scanner.Observation.of_csv_row (legacy_row failed_obs) = None);
  (* The current schema round-trips the fault fields. *)
  let faulted =
    Scanner.Observation.failed_conn ~failure:Faults.Fault.Endpoint_outage ~attempts:3 ~time:9
      ~domain:"down.example" ()
  in
  match Scanner.Observation.of_csv_row (Scanner.Observation.to_csv_row faulted) with
  | Some c -> Alcotest.(check bool) "fault fields round-trip" true (c = faulted)
  | None -> Alcotest.fail "faulted row did not parse"

let test_forward_compat_unknown_cause () =
  (* An archive written by a future build with a cause this build has
     never heard of must still load — as [Unknown] — rather than
     poisoning the whole campaign file. *)
  let faulted =
    Scanner.Observation.failed_conn ~failure:Faults.Fault.Tcp_reset ~attempts:2 ~time:5
      ~domain:"future.example" ()
  in
  let row = Scanner.Observation.to_csv_row faulted in
  let futuristic =
    String.concat ","
      (List.mapi
         (fun i field -> if i = 12 then "quantum-desync" else field)
         (String.split_on_char ',' row))
  in
  match Scanner.Observation.of_csv_row futuristic with
  | Some c ->
      Alcotest.(check bool) "unknown cause maps to Unknown" true
        (c.Scanner.Observation.failure = Some Faults.Fault.Unknown);
      Alcotest.(check int) "rest of the row intact" 2 c.Scanner.Observation.attempts
  | None -> Alcotest.fail "row with unknown cause token rejected"

let test_fault_token_roundtrip () =
  List.iter
    (fun f ->
      match Faults.Fault.of_string (Faults.Fault.to_string f) with
      | Some f' -> Alcotest.(check bool) "token round-trips" true (f = f')
      | None -> Alcotest.failf "token %s did not parse" (Faults.Fault.to_string f))
    Faults.Fault.all;
  Alcotest.(check bool) "unknown token rejected" true (Faults.Fault.of_string "bogus" = None)

let () =
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_schedule_deterministic;
          Alcotest.test_case "none profile inert" `Quick test_none_profile_never_fires;
        ] );
      ( "retry",
        [
          Alcotest.test_case "exhaustion vs outage recovery" `Quick
            test_retry_exhaustion_and_recovery;
          Alcotest.test_case "world errors final" `Quick test_world_errors_are_final;
          Alcotest.test_case "backoff deterministic+bounded" `Quick
            test_backoff_deterministic_and_bounded;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "surviving probes identical to clean run" `Quick
            test_fault_rng_isolation;
          Alcotest.test_case "faulty parallel worker-invariant" `Quick
            test_faulty_parallel_campaign_worker_invariant;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "classify deterministic, both classes" `Quick
            test_byzantine_classify_deterministic;
          Alcotest.test_case "mutate pure and bounded" `Quick test_byzantine_mutate_bounded;
          Alcotest.test_case "byzantine campaign invariants" `Quick
            test_byzantine_profile_campaign;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens at threshold, cools down" `Quick
            test_breaker_opens_and_cools;
          Alcotest.test_case "world errors don't trip it" `Quick
            test_breaker_ignores_world_errors;
        ] );
      ( "funnel", [ Alcotest.test_case "accounting" `Quick test_funnel_accounting ] );
      ( "csv",
        [
          Alcotest.test_case "legacy rows" `Quick test_legacy_csv_rows;
          Alcotest.test_case "unknown cause forward-compat" `Quick
            test_forward_compat_unknown_cause;
          Alcotest.test_case "fault tokens" `Quick test_fault_token_roundtrip;
        ] );
    ]
