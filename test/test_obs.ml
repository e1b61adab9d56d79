(* Tests for the observability layer: metrics registry semantics, the
   order-independence of shard merges (the property that makes campaign
   telemetry identical at any --jobs), and the guarantee that turning
   telemetry on never perturbs the observation archive. *)

open Helpers

(* --- Metrics basics --------------------------------------------------------------- *)

let bounds = [| 1; 2; 4; 8 |]

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c.connects";
  Obs.Metrics.add m "c.connects" 2;
  Obs.Metrics.gauge_max m "g.days" 3;
  Obs.Metrics.gauge_max m "g.days" 7;
  Obs.Metrics.gauge_max m "g.days" 5;
  Obs.Metrics.observe m "h.attempts" ~bounds 1;
  Obs.Metrics.observe m "h.attempts" ~bounds 9;
  Alcotest.(check int) "counter accumulates" 3 (Obs.Metrics.counter_value m "c.connects");
  Alcotest.(check int) "absent counter reads zero" 0 (Obs.Metrics.counter_value m "c.nope");
  Alcotest.(check (option int)) "gauge keeps max" (Some 7) (Obs.Metrics.gauge_value m "g.days");
  let s = Obs.Metrics.to_json_string m in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.fail ("metrics JSON does not parse back: " ^ e)
  | Ok j ->
      Alcotest.(check (option string)) "schema stamped" (Some Obs.Metrics.schema)
        (Option.bind (Obs.Json.member "schema" j) Obs.Json.to_str)

let test_metrics_kind_clash () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x";
  Alcotest.check_raises "gauge on a counter name rejected"
    (Invalid_argument "Obs.Metrics: \"x\" is a counter, not a gauge") (fun () ->
      Obs.Metrics.gauge_max m "x" 1)

let test_merge_with_empty_is_identity () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "c.a" 5;
  Obs.Metrics.gauge_max m "g.b" 2;
  Obs.Metrics.observe m "h.c" ~bounds 3;
  let before = Obs.Metrics.to_json_string m in
  Obs.Metrics.merge m (Obs.Metrics.create ());
  Alcotest.(check string) "merging an empty registry changes nothing" before
    (Obs.Metrics.to_json_string m)

(* The null recorder is shared by every worker domain: nothing done to or
   through it may leave a trace, in it or in a live recorder. *)
let test_null_recorder_records_nothing () =
  let module R = Obs.Recorder in
  let empty = R.metrics_json_string (R.create ()) in
  let empty_trace = R.trace_json_string (R.create ()) in
  let null = R.fork R.null in
  Alcotest.(check bool) "fork of null is null" false (R.enabled null);
  R.incr R.null "c";
  R.add R.null "c" 2;
  R.gauge_max R.null "g" 3;
  R.observe R.null "h" ~bounds 1;
  R.event R.null ~name:"e" ~at:5 ();
  Alcotest.(check int) "span null f is f ()" 7
    (R.span R.null ~name:"s" ~now:(fun () -> 0) (fun () -> 7));
  let live = R.create () in
  R.incr live "c";
  let live_metrics = R.metrics_json_string live in
  R.merge R.null live;
  R.merge live R.null;
  Alcotest.(check string) "null holds no metrics" empty (R.metrics_json_string R.null);
  Alcotest.(check string) "null holds no spans" empty_trace (R.trace_json_string R.null);
  Alcotest.(check string) "merging null changes nothing" live_metrics (R.metrics_json_string live);
  Alcotest.(check bool) "fork of a live recorder is live" true (R.enabled (R.fork live))

(* --- Merge is commutative and associative ----------------------------------------- *)

(* Random registries are built from op lists; the name prefixes keep each
   name on a single kind, and every histogram shares one bounds array,
   mirroring how the scanner only ever registers fixed-layout series. *)

type op = Incr of string * int | Gauge of string * int | Observe of string * int

let apply m = function
  | Incr (n, v) -> Obs.Metrics.add m n v
  | Gauge (n, v) -> Obs.Metrics.gauge_max m n v
  | Observe (n, v) -> Obs.Metrics.observe m n ~bounds v

let registry_of ops =
  let m = Obs.Metrics.create () in
  List.iter (apply m) ops;
  m

let op_gen =
  QCheck2.Gen.(
    let name tag = map (fun i -> Printf.sprintf "%s.%d" tag i) (int_range 0 4) in
    let* v = int_range 0 20 in
    oneof
      [
        map (fun n -> Incr (n, v)) (name "c");
        map (fun n -> Gauge (n, v)) (name "g");
        map (fun n -> Observe (n, v)) (name "h");
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 30) op_gen)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"metrics merge is commutative" ~count:300
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (a, b) ->
      let ab = registry_of a in
      Obs.Metrics.merge ab (registry_of b);
      let ba = registry_of b in
      Obs.Metrics.merge ba (registry_of a);
      Obs.Metrics.equal ab ba)

let prop_merge_associative =
  QCheck2.Test.make ~name:"metrics merge is associative" ~count:300
    QCheck2.Gen.(triple ops_gen ops_gen ops_gen)
    (fun (a, b, c) ->
      (* ((a+b)+c) vs (a+(b+c)) — built from fresh registries each side
         because merge mutates its destination. *)
      let left = registry_of a in
      Obs.Metrics.merge left (registry_of b);
      Obs.Metrics.merge left (registry_of c);
      let bc = registry_of b in
      Obs.Metrics.merge bc (registry_of c);
      let right = registry_of a in
      Obs.Metrics.merge right bc;
      Obs.Metrics.equal left right)

let test_trace_merge_order_independent () =
  let span t ~name ~s ~e = Obs.Trace.record t ~name ~sim_start:s ~sim_end:e () in
  let a () =
    let t = Obs.Trace.create () in
    span t ~name:"scan.day" ~s:0 ~e:90;
    span t ~name:"campaign.shard" ~s:0 ~e:1000;
    t
  in
  let b () =
    let t = Obs.Trace.create () in
    span t ~name:"scan.day" ~s:100 ~e:250;
    t
  in
  let ab = a () in
  Obs.Trace.merge ab (b ());
  let ba = b () in
  Obs.Trace.merge ba (a ());
  Alcotest.(check string) "span aggregation ignores merge order"
    (Obs.Trace.to_json_string ab) (Obs.Trace.to_json_string ba)

(* --- Worker count cannot change the metrics --------------------------------------- *)

let world_config =
  { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "obs-test" }

let fresh_world () = Simnet.World.create ~config:world_config ()

let test_metrics_equal_across_jobs () =
  let days = 2 in
  let metrics jobs =
    let obs = Obs.Recorder.create () in
    ignore (Scanner.Parallel_campaign.collect ~jobs (fresh_world ()) ~days ~obs);
    Alcotest.(check bool) "metrics are non-trivial" true
      (Obs.Metrics.counter_value (Obs.Recorder.metrics obs) "probe.connects" > 0);
    Obs.Recorder.metrics_json_string obs
  in
  let runs = List.map (fun jobs -> (jobs, metrics jobs)) [ 1; 4 ] in
  let reference = snd (List.hd runs) in
  List.iter
    (fun (jobs, json) ->
      Alcotest.(check string) (Printf.sprintf "jobs=%d metrics JSON equals jobs=1" jobs)
        reference json)
    runs

(* --- Telemetry never perturbs the archive ----------------------------------------- *)

let test_archive_bytes_unchanged_by_telemetry () =
  let days = 2 in
  let run ?obs () =
    let t = Scanner.Parallel_campaign.collect ~jobs:1 ?obs (fresh_world ()) ~days in
    let path = Filename.temp_file "tlsharm-obs" ".csv" in
    Scanner.Daily_scan.save t path;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> read_file path)
  in
  let plain = run () in
  let traced = run ~obs:(Obs.Recorder.create ()) () in
  Alcotest.(check bool) "archive is non-empty" true (String.length plain > 0);
  Alcotest.(check bool) "telemetry on/off archives byte-identical" true
    (String.equal plain traced)

(* --- Kernel counters --------------------------------------------------------------- *)

let test_kernel_snapshot_diff () =
  let before = Obs.Kernel.snapshot () in
  ignore (Crypto.Dh.gen_keypair Crypto.Dh.oakley2 (Crypto.Rng.create ~seed:"obs-kernel-test"));
  let after = Obs.Kernel.snapshot () in
  let diff = Obs.Kernel.diff ~before ~after in
  Alcotest.(check bool) "fixed-base pow advanced" true
    (match List.assoc_opt "pow_mod_fixed" diff with Some n -> n > 0 | None -> false);
  let m = Obs.Metrics.create () in
  Obs.Kernel.add_to_metrics m diff;
  Alcotest.(check bool) "published under kernel.*" true
    (Obs.Metrics.counter_value m "kernel.pow_mod_fixed" > 0)

(* Integral floats outside OCaml's int range must not convert:
   [int_of_float] of them is unspecified (2^62 wraps to min_int). *)
let test_json_to_int_range () =
  let to_int f = Obs.Json.to_int (Obs.Json.Num f) in
  Alcotest.(check (option int)) "2^62 - 2^9" (Some (max_int - 511)) (to_int (Float.pred 0x1p62));
  Alcotest.(check (option int)) "-2^62" (Some min_int) (to_int (-0x1p62));
  Alcotest.(check (option int)) "2^62" None (to_int 0x1p62);
  Alcotest.(check (option int)) "1e300" None (to_int 1e300);
  Alcotest.(check (option int)) "-1e300" None (to_int (-1e300));
  Alcotest.(check (option int)) "2.5" None (to_int 2.5)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "kind clash rejected" `Quick test_metrics_kind_clash;
          Alcotest.test_case "empty merge is identity" `Quick test_merge_with_empty_is_identity;
          Alcotest.test_case "null recorder records nothing" `Quick
            test_null_recorder_records_nothing;
          Alcotest.test_case "trace merge order independent" `Quick
            test_trace_merge_order_independent;
          Alcotest.test_case "json to_int range" `Quick test_json_to_int_range;
        ] );
      qsuite "merge-laws" [ prop_merge_commutative; prop_merge_associative ];
      ( "campaign",
        [
          Alcotest.test_case "metrics equal across jobs" `Slow test_metrics_equal_across_jobs;
          Alcotest.test_case "archive bytes unchanged by telemetry" `Slow
            test_archive_bytes_unchanged_by_telemetry;
        ] );
      ("kernel", [ Alcotest.test_case "snapshot diff" `Quick test_kernel_snapshot_diff ]);
    ]
