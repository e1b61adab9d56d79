(* Tests for the durability layer: atomic checksummed archives, tagged
   spools, the streamed run log with byte-identical resume, and worker
   supervision.

   The headline invariant under test: kill a streamed campaign after day
   k, resume it, and the final archive is byte-for-byte identical to the
   archive an uninterrupted run would have produced — at one worker and
   across worker counts. *)

open Helpers

let spew path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let with_temp_file f =
  let path = Filename.temp_file "tlsharm-durable" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let flip_byte path ~pos =
  let contents = Bytes.of_string (read_file path) in
  Bytes.set contents pos (Char.chr (Char.code (Bytes.get contents pos) lxor 0xff));
  spew path (Bytes.to_string contents)

let find haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None else if String.sub haystack i nn = needle then Some i else go (i + 1)
  in
  go 0

(* Offset of the first payload byte of spool block [block] in raw spool
   bytes: just past its frame line. *)
let block_payload_start raw ~block =
  let marker = Option.get (find raw (Printf.sprintf "#block %d " block)) in
  String.index_from raw marker '\n' + 1

(* --- Atomic_io -------------------------------------------------------------- *)

(* Deterministic multi-block content: long enough to span three checksum
   blocks so corruption offsets are meaningful. *)
let big_content =
  String.init ((2 * Durable.Atomic_io.block_size) + 12345) (fun i -> Char.chr (((i * 131) + (i / 997)) land 0xff))

let test_atomic_roundtrip () =
  with_temp_file (fun path ->
      Durable.Atomic_io.write path big_content;
      (match Durable.Atomic_io.read path with
      | Ok c -> Alcotest.(check bool) "multi-block content survives" true (String.equal c big_content)
      | Error e -> Alcotest.fail (Durable.Atomic_io.error_to_string e));
      Durable.Atomic_io.write path "";
      match Durable.Atomic_io.read path with
      | Ok c -> Alcotest.(check string) "empty content survives" "" c
      | Error e -> Alcotest.fail (Durable.Atomic_io.error_to_string e))

(* A legacy (headerless) file is not passed through: every reader
   refuses it by name. *)
let test_atomic_legacy_passthrough () =
  with_temp_file (fun path ->
      spew path "plain,legacy\nrows\n";
      match Durable.Atomic_io.read path with
      | Error Durable.Atomic_io.Not_durable -> ()
      | Ok _ -> Alcotest.fail "read must reject a headerless file"
      | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e))

let test_atomic_missing_and_empty () =
  (match Durable.Atomic_io.read "/nonexistent/tlsharm/path" with
  | Error (Durable.Atomic_io.Io _) -> ()
  | Ok _ -> Alcotest.fail "missing file cannot read"
  | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e));
  with_temp_file (fun path ->
      spew path "";
      match Durable.Atomic_io.read path with
      | Error Durable.Atomic_io.Not_durable -> ()
      | Ok _ -> Alcotest.fail "empty file is not durable"
      | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e))

let test_atomic_detects_truncation () =
  with_temp_file (fun path ->
      Durable.Atomic_io.write path big_content;
      let full = read_file path in
      (* Chop the footer off entirely: a write that died mid-stream. *)
      spew path (String.sub full 0 (String.length full - 200));
      (match Durable.Atomic_io.read path with
      | Error (Durable.Atomic_io.Missing_footer _) -> ()
      | Ok _ -> Alcotest.fail "footer-less truncation must not read"
      | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e));
      (* Keep the footer but drop content bytes: footer and body disagree.
         The byte at [footer_start - 1] is the frame's separator newline;
         re-add it after shortening the content. *)
      let footer_start =
        match String.rindex_opt (String.sub full 0 (String.length full - 1)) '\n' with
        | Some i -> i + 1
        | None -> Alcotest.fail "durable file has no footer line"
      in
      spew path
        (String.sub full 0 (footer_start - 101)
        ^ "\n"
        ^ String.sub full footer_start (String.length full - footer_start));
      match Durable.Atomic_io.read path with
      | Error (Durable.Atomic_io.Truncated { expected_bytes; actual_bytes }) ->
          Alcotest.(check int) "expected bytes" (String.length big_content) expected_bytes;
          Alcotest.(check bool) "actual below expected" true (actual_bytes < expected_bytes)
      | Ok _ -> Alcotest.fail "short body must not read"
      | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e))

let test_atomic_detects_bit_flip () =
  with_temp_file (fun path ->
      Durable.Atomic_io.write path big_content;
      let header_len =
        let full = read_file path in
        1 + (match String.index_opt full '\n' with Some i -> i | None -> 0)
      in
      (* Damage a byte in the second content block; the error must name
         that block's starting offset. *)
      flip_byte path ~pos:(header_len + Durable.Atomic_io.block_size + 17);
      match Durable.Atomic_io.read path with
      | Error (Durable.Atomic_io.Corrupt { offset }) ->
          Alcotest.(check int) "corruption offset names the damaged block"
            Durable.Atomic_io.block_size offset
      | Ok _ -> Alcotest.fail "bit flip must not read"
      | Error e -> Alcotest.fail ("wrong error: " ^ Durable.Atomic_io.error_to_string e))

let test_atomic_failed_write_leaves_no_trace () =
  with_temp_file (fun path ->
      spew path "precious";
      (try
         Durable.Atomic_io.with_writer path (fun w ->
             Durable.Atomic_io.add w "half a file";
             failwith "simulated crash mid-write")
       with Failure _ -> ());
      Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check string) "original untouched" "precious" (read_file path))

let prop_atomic_roundtrip =
  QCheck2.Test.make ~name:"atomic write/read roundtrip" ~count:100
    QCheck2.Gen.(string_size (int_range 0 1000))
    (fun content ->
      with_temp_file (fun path ->
          Durable.Atomic_io.write path content;
          match Durable.Atomic_io.read path with
          | Ok c -> String.equal c content
          | Error _ -> false))

(* --- Random corruption corpus ------------------------------------------------ *)

(* Byzantine-storage analog of the wire fuzzer: arbitrary single-byte
   damage and truncation against the durable readers must always come
   back as a typed [error] — never an exception, never silently-wrong
   content. Each fixture is damaged and deleted as soon as it is
   written, so it is written with [~sync:false]: the same bytes without
   the fsync wait (the synced paths are the roundtrip and damage
   tests'). *)

let prop_atomic_flip_detected =
  QCheck2.Test.make ~name:"atomic read total+typed under byte flips" ~count:300
    QCheck2.Gen.(triple (string_size (int_range 0 2000)) small_nat (int_range 1 255))
    (fun (content, pos, x) ->
      with_temp_file (fun path ->
          Durable.Atomic_io.write ~sync:false path content;
          let raw = Bytes.of_string (read_file path) in
          let p = pos mod Bytes.length raw in
          Bytes.set raw p (Char.chr (Char.code (Bytes.get raw p) lxor x));
          spew path (Bytes.to_string raw);
          match Durable.Atomic_io.read path with
          | Error _ -> true
          | Ok c ->
              QCheck2.Test.fail_reportf
                "flip at byte %d (xor %#x) read back Ok with %d bytes" p x
                (String.length c)
          | exception e ->
              QCheck2.Test.fail_reportf "read raised %s" (Printexc.to_string e)))

let prop_atomic_truncation_detected =
  QCheck2.Test.make ~name:"atomic read total+typed under truncation" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 2000)) small_nat)
    (fun (content, cut) ->
      with_temp_file (fun path ->
          Durable.Atomic_io.write ~sync:false path content;
          let raw = read_file path in
          let keep = cut mod String.length raw in
          spew path (String.sub raw 0 keep);
          match Durable.Atomic_io.read path with
          | Error _ -> true
          | Ok c ->
              QCheck2.Test.fail_reportf "file cut to %d bytes read back Ok with %d bytes"
                keep (String.length c)
          | exception e ->
              QCheck2.Test.fail_reportf "read raised %s" (Printexc.to_string e)))

let prop_spool_flip_total =
  (* Every block frame carries its payload's tag, so a flipped byte
     anywhere in a sealed spool is caught: a damaged header is an error,
     and any other flip ends the valid prefix there and leaves the spool
     incomplete. The blocks read back are always a prefix of what was
     written — never a damaged payload. *)
  QCheck2.Test.make ~name:"spool read total under byte flips" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 6) (string_size (int_range 0 200)))
        small_nat (int_range 1 255))
    (fun (payloads, pos, x) ->
      with_temp_file (fun path ->
          let w = Durable.Spool.create ~sync:false path in
          List.iter (Durable.Spool.add_block w) payloads;
          Durable.Spool.close w;
          let raw = Bytes.of_string (read_file path) in
          let p = pos mod Bytes.length raw in
          Bytes.set raw p (Char.chr (Char.code (Bytes.get raw p) lxor x));
          spew path (Bytes.to_string raw);
          let rec is_prefix = function
            | [], _ -> true
            | b :: bs, p :: ps -> String.equal b p && is_prefix (bs, ps)
            | _ :: _, [] -> false
          in
          match Durable.Spool.read path with
          | Error _ -> true
          | Ok (_, true) -> QCheck2.Test.fail_reportf "flip at byte %d read back complete" p
          | Ok (blocks, false) -> is_prefix (blocks, payloads)
          | exception e ->
              QCheck2.Test.fail_reportf "spool read raised %s" (Printexc.to_string e)))

let prop_spool_truncation_total =
  QCheck2.Test.make ~name:"spool read total under truncation" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 1 6) (string_size (int_range 0 200))) small_nat)
    (fun (payloads, cut) ->
      with_temp_file (fun path ->
          let w = Durable.Spool.create ~sync:false path in
          List.iter (Durable.Spool.add_block w) payloads;
          Durable.Spool.close w;
          let raw = read_file path in
          let keep = cut mod String.length raw in
          spew path (String.sub raw 0 keep);
          match Durable.Spool.read path with
          | Error _ -> true
          | Ok (blocks, complete) ->
              (* A truncated spool can never read back complete with every
                 block intact unless nothing after the header was lost. *)
              List.length blocks <= List.length payloads
              && ((not complete) || List.length blocks < List.length payloads
                 || keep >= String.length raw)
          | exception e ->
              QCheck2.Test.fail_reportf "spool read raised %s" (Printexc.to_string e)))

(* --- Campaign archive damage ------------------------------------------------- *)

let small_campaign =
  lazy
    (let w =
       Simnet.World.create
         ~config:
           { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "durable-archive" }
         ()
     in
     Scanner.Parallel_campaign.collect ~jobs:1 w ~days:2)

let test_campaign_load_rejects_damage () =
  with_temp_file (fun path ->
      Scanner.Daily_scan.save (Lazy.force small_campaign) path;
      let pristine = read_file path in
      (* Truncation. *)
      spew path (String.sub pristine 0 (String.length pristine / 2));
      (match Scanner.Daily_scan.load path with
      | Error e -> Alcotest.(check bool) "truncation is a campaign error" true (contains e "campaign")
      | Ok _ -> Alcotest.fail "truncated archive must not load");
      (* Bit flip in the body. *)
      spew path pristine;
      flip_byte path ~pos:(String.length pristine / 2);
      (match Scanner.Daily_scan.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bit-flipped archive must not load");
      (* Empty file. *)
      spew path "";
      match Scanner.Daily_scan.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty archive must not load")

(* --- The run log: stream manifests and recorded prefixes -------------------- *)

let manifest_fixture = [ ("mode", "campaign"); ("seed", "s"); ("days", "63") ]

let create_sink ?(manifest = manifest_fixture) dir =
  match Scanner.Stream_sink.create ~dir ~manifest with Ok s -> s | Error e -> Alcotest.fail e

let test_checkpoint_manifest_roundtrip () =
  with_temp_dir (fun dir ->
      let dir = Filename.concat dir "run" in
      ignore (create_sink dir);
      (match Scanner.Stream_sink.manifest ~dir with
      | Error e -> Alcotest.fail e
      | Ok kvs ->
          Alcotest.(check (option string)) "field" (Some "63") (List.assoc_opt "days" kvs);
          Alcotest.(check (option string)) "schema recorded" (Some Scanner.Stream_sink.schema)
            (List.assoc_opt "schema" kvs));
      (* Re-creating with identical parameters re-attaches... *)
      (match Scanner.Stream_sink.create ~dir ~manifest:manifest_fixture with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("re-create must be idempotent: " ^ e));
      (* ...but a different run is refused, and the manifest is left alone. *)
      let mpath = Filename.concat dir "manifest" in
      let before = read_file mpath in
      (match Scanner.Stream_sink.create ~dir ~manifest:[ ("mode", "other") ] with
      | Error e -> Alcotest.(check bool) "mentions mismatch" true (contains e "different run")
      | Ok _ -> Alcotest.fail "different manifest must be refused");
      Alcotest.(check string) "refusal leaves the manifest" before (read_file mpath))

let test_checkpoint_attach_errors () =
  with_temp_dir (fun dir ->
      (match Scanner.Stream_sink.manifest ~dir:(Filename.concat dir "missing") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a manifest-less directory holds no run");
      let sdir = Filename.concat dir "run" in
      ignore (create_sink sdir);
      let mpath = Filename.concat sdir "manifest" in
      let pristine = read_file mpath in
      (* Every damaged manifest is a typed error, for readers and for
         re-attaching writers alike. *)
      let refused what =
        (match Scanner.Stream_sink.manifest ~dir:sdir with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail (what ^ " manifest must not read"));
        match Scanner.Stream_sink.create ~dir:sdir ~manifest:manifest_fixture with
        | Error e -> e
        | Ok _ -> Alcotest.fail (what ^ " manifest must not re-attach")
      in
      spew mpath (String.sub pristine 0 (String.length pristine - 5));
      ignore (refused "truncated");
      spew mpath pristine;
      flip_byte mpath ~pos:(String.length pristine / 2);
      ignore (refused "bit-flipped");
      (* Raw headerless manifest (foreign file). *)
      spew mpath ("schema=" ^ Scanner.Stream_sink.schema ^ "\n");
      ignore (refused "headerless");
      (* A manifest of the previous schema is refused by name. *)
      Durable.Atomic_io.write mpath "schema=tlsharm-stream/1\nmode=campaign\n";
      Alcotest.(check bool) "old schema named" true
        (contains (refused "old-schema") "tlsharm-stream/1"))

(* The resume rule on opaque payloads. A re-run stream compares each
   re-emitted block with the block recorded at its position; the checked
   prefix of a recorded spool is read off as the positions at which a
   divergent block raises [Mismatch]. *)
let test_checkpoint_valid_prefix () =
  with_temp_dir (fun dir ->
      let sink = create_sink (Filename.concat dir "run") in
      let path = Filename.concat (Filename.concat dir "run") "rows-shard-0000" in
      let days = 4 in
      let payload day = Printf.sprintf "payload for day %d" day in
      let record blocks =
        let w = Durable.Spool.create path in
        List.iter (Durable.Spool.add_block w) blocks;
        Durable.Spool.close w
      in
      let decode _ trailer = if trailer = "trailer" then Ok trailer else Error "bad trailer" in
      let rerun () =
        match Scanner.Stream_sink.stream sink "shard-0000" ~days ~decode with
        | Scanner.Stream_sink.Rerun s -> s
        | Scanner.Stream_sink.Kept _ -> Alcotest.fail "only a sealed whole run is kept"
      in
      let checked_prefix setup =
        List.filter
          (fun i ->
            setup ();
            let s = rerun () in
            for d = 0 to i - 1 do
              Scanner.Stream_sink.append_day s ~rows:0 (payload d)
            done;
            match Scanner.Stream_sink.append_day s ~rows:0 "diverged" with
            | () -> false
            | exception Scanner.Stream_sink.Mismatch _ -> true)
          (List.init days Fun.id)
      in
      let no_spool () = if Sys.file_exists path then Sys.remove path in
      Alcotest.(check (list int)) "no spool yet" [] (checked_prefix no_spool);
      Alcotest.(check (list int)) "four days" [ 0; 1; 2; 3 ]
        (checked_prefix (fun () -> record (List.init days payload)));
      (* The whole run sealed with its trailer is kept, bytes untouched. *)
      record (List.init days payload @ [ "trailer" ]);
      let sealed = read_file path in
      (match Scanner.Stream_sink.stream sink "shard-0000" ~days ~decode with
      | Scanner.Stream_sink.Kept trailer -> Alcotest.(check string) "trailer handed back" "trailer" trailer
      | Scanner.Stream_sink.Rerun _ -> Alcotest.fail "a sealed whole run must be kept");
      Alcotest.(check string) "kept spool untouched" sealed (read_file path);
      (* A sealed whole run the decoder refuses is not kept: it is a
         mismatch, and the spool is left as it was. *)
      (match Scanner.Stream_sink.stream sink "shard-0000" ~days ~decode:(fun _ _ -> Error "no") with
      | _ -> Alcotest.fail "an undecodable sealed run must be refused"
      | exception Scanner.Stream_sink.Mismatch _ -> ());
      Alcotest.(check string) "refused spool untouched" sealed (read_file path);
      (* The same spool under another day count is re-run, and opening
         it writes nothing. *)
      (match Scanner.Stream_sink.stream sink "shard-0000" ~days:(days + 1) ~decode with
      | Scanner.Stream_sink.Rerun _ -> ()
      | Scanner.Stream_sink.Kept _ -> Alcotest.fail "another day count must re-run");
      Alcotest.(check string) "opening a re-run leaves the spool" sealed (read_file path);
      (* Damaging day 1 ends the prefix there even though days 2-3 are
         intact. *)
      Alcotest.(check (list int)) "corrupt block ends prefix" [ 0 ]
        (checked_prefix (fun () ->
             record (List.init days payload);
             flip_byte path ~pos:(block_payload_start (read_file path) ~block:1))))

(* --- Serialization properties --------------------------------------------------
   The day-block state codec is exercised end-to-end by the resume
   tests below; these cover its two stateful ingredients directly. *)

let prop_funnel_lines_roundtrip =
  QCheck2.Test.make ~name:"funnel to_lines/of_lines roundtrip" ~count:200
    QCheck2.Gen.(
      let op =
        let* day = int_range 0 5 in
        let* attempts = int_range 1 4 in
        let* success = bool in
        let* slow = bool in
        let* fault = oneofl Faults.Fault.all in
        return (day, attempts, success, slow, fault)
      in
      list_size (int_range 0 50) op)
    (fun ops ->
      let f = Faults.Funnel.create () in
      List.iter
        (fun (day, attempts, success, slow, fault) ->
          if success then Faults.Funnel.record_success f ~day ~attempts ~slow
          else Faults.Funnel.record_failure f ~day ~attempts fault)
        ops;
      let lines = Faults.Funnel.to_lines f in
      match Faults.Funnel.of_lines lines with
      | Error _ -> false
      | Ok f' -> Faults.Funnel.to_lines f' = lines)

let test_funnel_of_lines_rejects_garbage () =
  (match Faults.Funnel.of_lines [ "not a funnel line" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse");
  match Faults.Funnel.of_lines [ "cell 1 2 3" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short cell line must not parse"

let prop_drbg_state_roundtrip =
  QCheck2.Test.make ~name:"drbg state/restore continues the stream" ~count:100
    QCheck2.Gen.(pair (string_size (int_range 1 32)) (int_range 1 120))
    (fun (seed, n) ->
      let d = Crypto.Rng.create ~seed in
      ignore (Crypto.Rng.generate d n);
      let d' = Crypto.Rng.restore ~state:(Crypto.Rng.state d) in
      String.equal (Crypto.Rng.generate d 48) (Crypto.Rng.generate d' 48))

let test_drbg_restore_rejects_bad_state () =
  let key = String.make 32 'k' in
  List.iter
    (fun (what, state) ->
      match Crypto.Rng.restore ~state with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (what ^ " must be rejected"))
    [
      ("a short key", { Crypto.Rng.key = "short"; counter = 1; offset = 0 });
      ("a negative counter", { Crypto.Rng.key; counter = -1; offset = 32 });
      ("an offset past the block", { Crypto.Rng.key; counter = 1; offset = 33 });
      ("a used block before any block", { Crypto.Rng.key; counter = 0; offset = 4 });
    ]

(* --- One-worker kill-and-resume ---------------------------------------------------

   A one-worker campaign scans shard 0 first. Simulated kill: a raising
   [progress] fires at the start of shard 0's day k, after its days 0..k-1
   were appended to the stream — raising [Killed] there is a process
   death with exactly k recorded blocks in "rows-shard-0000". *)

exception Killed

let serial_config =
  { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "durable-serial" }

let serial_days = 4
let first_spool dir = Filename.concat dir "rows-shard-0000"

let archive_bytes campaign =
  with_temp_file (fun path ->
      Scanner.Daily_scan.save campaign path;
      read_file path)

let loaded_bytes dir =
  match Scanner.Daily_scan.load_stream dir with
  | Ok campaign -> archive_bytes campaign
  | Error e -> Alcotest.fail e

(* One campaign streamed into the run log at [dir]. The default manifest
   pins the day range, as the CLI's does; a resume re-creates the sink
   with the same manifest and re-attaches. A run keeps no rows in
   memory: read the archive back with [loaded_bytes dir]. *)
let run_streamed ?progress ?obs ?manifest ?(config = serial_config) ?(days = serial_days)
    ?(jobs = 1) dir =
  let w = Simnet.World.create ~config () in
  let manifest =
    match manifest with Some m -> m | None -> Scanner.Parallel_campaign.manifest w ~days
  in
  let sink = create_sink ~manifest dir in
  Scanner.Parallel_campaign.run ~jobs ?progress ~sink ?obs w ~days ()

let serial_reference =
  lazy
    (let w = Simnet.World.create ~config:serial_config () in
     archive_bytes (Scanner.Parallel_campaign.collect ~jobs:1 w ~days:serial_days))

let recorded_blocks path =
  match Durable.Spool.read path with
  | Ok r -> r
  | Error e -> Alcotest.fail (Durable.Spool.error_to_string ~path e)

let kill_serial_after dir ~k =
  match
    run_streamed dir ~progress:(fun ~shard ~day -> if shard = 0 && day = k then raise Killed)
  with
  | _ -> Alcotest.fail "the kill must fire"
  | exception Killed -> ()

let test_serial_kill_resume_identity () =
  let reference = Lazy.force serial_reference in
  (* k = 1, mid, last-1. *)
  List.iter
    (fun k ->
      with_temp_dir (fun dir ->
          kill_serial_after dir ~k;
          let blocks, complete = recorded_blocks (first_spool dir) in
          Alcotest.(check (pair int bool))
            (Printf.sprintf "k=%d days survive the kill" k)
            (k, false)
            (List.length blocks, complete);
          run_streamed dir;
          Alcotest.(check bool)
            (Printf.sprintf "resume after day %d is byte-identical" k)
            true
            (String.equal (loaded_bytes dir) reference);
          (* The completed log is now kept whole, without probing. *)
          let obs = Obs.Recorder.create () in
          run_streamed ~obs dir;
          Alcotest.(check int) "full restore makes no probe" 0
            (Obs.Metrics.counter_value (Obs.Recorder.metrics obs) "probe.connects");
          Alcotest.(check bool) "full restore is byte-identical" true
            (String.equal (loaded_bytes dir) reference)))
    [ 1; 2; serial_days - 1 ]

let test_serial_corrupt_newest_falls_back () =
  let reference = Lazy.force serial_reference in
  with_temp_dir (fun dir ->
      run_streamed dir;
      (* Damage the newest day block: the archive must stop loading, and
         resume must fall back to the last valid day and still converge
         on the same archive. *)
      let spool = first_spool dir in
      flip_byte spool ~pos:(block_payload_start (read_file spool) ~block:(serial_days - 1) + 2);
      Alcotest.(check int) "prefix stops at the damage" (serial_days - 1)
        (List.length (fst (recorded_blocks spool)));
      (match Scanner.Daily_scan.load_stream dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a damaged block must not load");
      run_streamed dir;
      Alcotest.(check bool) "resume past corruption is byte-identical" true
        (String.equal (loaded_bytes dir) reference))

let test_resume_wrong_world_mismatches () =
  with_temp_dir (fun dir ->
      run_streamed ~manifest:manifest_fixture ~days:2 dir;
      (* Same log, different world: the replay byte-compare must refuse
         to graft this run onto the recorded blocks. *)
      match
        run_streamed ~manifest:manifest_fixture
          ~config:{ serial_config with Simnet.World.seed = "other-world" }
          dir
      with
      | _ -> Alcotest.fail "a different world must not resume"
      | exception Scanner.Stream_sink.Mismatch _ -> ())

(* --- Parallel kill-and-resume ----------------------------------------------------- *)

let parallel_config =
  { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "durable-parallel" }

let parallel_days = 3

let parallel_reference =
  lazy
    (let w = Simnet.World.create ~config:parallel_config () in
     archive_bytes (Scanner.Parallel_campaign.collect ~jobs:1 w ~days:parallel_days))

(* Kill the worker mid-shard: shard 1, start of day 1. *)
let kill_parallel dir =
  match
    run_streamed ~config:parallel_config ~days:parallel_days
      ~progress:(fun ~shard ~day -> if shard = 1 && day = 1 then raise Killed)
      dir
  with
  | _ -> Alcotest.fail "the kill must fire"
  | exception Killed -> ()

let test_parallel_kill_resume_identity () =
  let reference = Lazy.force parallel_reference in
  with_temp_dir (fun dir ->
      kill_parallel dir;
      (* Resume at a different worker count than the killed run. *)
      run_streamed ~config:parallel_config ~days:parallel_days ~jobs:4 dir;
      Alcotest.(check bool) "resume with jobs=4 is byte-identical" true
        (String.equal (loaded_bytes dir) reference);
      (* Every shard is now sealed: a further resume (back at jobs=1)
         keeps them all without scanning and still matches. *)
      run_streamed ~config:parallel_config ~days:parallel_days dir;
      Alcotest.(check bool) "full restore with jobs=1 is byte-identical" true
        (String.equal (loaded_bytes dir) reference))

(* A shard that raises fails the run, at any worker count: nothing
   retries it in process. Its stream stays unsealed, and a second run
   into the same sink, without the fault, finishes the campaign under
   the resume rule with the clean run's bytes. *)
let test_raising_shard_fails_run () =
  let reference = Lazy.force parallel_reference in
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          (match
             run_streamed ~config:parallel_config ~days:parallel_days ~jobs
               ~progress:(fun ~shard ~day ->
                 if shard = 1 && day = 1 then failwith "injected worker crash")
               dir
           with
          | () -> Alcotest.failf "jobs=%d: the run must fail" jobs
          | exception Failure _ -> ());
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: the raising shard's spool is unsealed" jobs)
            false
            (snd (recorded_blocks (Filename.concat dir "rows-shard-0001")));
          run_streamed ~config:parallel_config ~days:parallel_days dir;
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: the re-run equals the clean archive" jobs)
            true
            (String.equal (loaded_bytes dir) reference)))
    [ 1; 2 ]

(* A fault-injected campaign run twice into one directory: the second
   run keeps every shard, writes no row, and restores the same loss
   funnel from the trailers. *)
let test_kept_funnel_from_trailers () =
  with_temp_dir (fun dir ->
      let run () =
        let w = Simnet.World.create ~config:parallel_config () in
        let injector = Faults.Injector.create ~profile:Faults.Profile.default w in
        let funnel = Faults.Funnel.create () in
        let sink = create_sink ~manifest:manifest_fixture dir in
        let obs = Obs.Recorder.create () in
        Scanner.Parallel_campaign.run ~jobs:1 ~sink ~injector ~funnel ~obs w ~days:2 ();
        ( funnel,
          Scanner.Stream_sink.rows_written sink,
          Obs.Metrics.counter_value (Obs.Recorder.metrics obs) "probe.connects" )
      in
      let first, first_rows, _ = run () in
      let second, second_rows, second_connects = run () in
      Alcotest.(check bool) "the first run scanned" true (first_rows > 0);
      Alcotest.(check (pair int int)) "the second run kept every shard" (0, 0)
        (second_rows, second_connects);
      let totals = Faults.Funnel.totals first in
      Alcotest.(check bool) "faults were booked" true (Faults.Funnel.lost totals > 0);
      Alcotest.(check bool) "funnel totals restored" true (totals = Faults.Funnel.totals second);
      Alcotest.(check (list string)) "funnel lines restored" (Faults.Funnel.to_lines first)
        (Faults.Funnel.to_lines second);
      Alcotest.(check string) "loss table restored"
        (Analysis.Funnel_report.render first)
        (Analysis.Funnel_report.render second))

(* --- Spool framing ------------------------------------------------------------------ *)

let test_spool_roundtrip () =
  with_temp_file (fun path ->
      let w = Durable.Spool.create path in
      Durable.Spool.add_block w "alpha";
      Durable.Spool.add_block w "two\nlines\n";
      Durable.Spool.add_block w "";
      Durable.Spool.close w;
      match Durable.Spool.read path with
      | Ok (blocks, complete) ->
          Alcotest.(check bool) "footer seen" true complete;
          Alcotest.(check (list string)) "blocks survive" [ "alpha"; "two\nlines\n"; "" ] blocks
      | Error e -> Alcotest.fail (Durable.Spool.error_to_string ~path e))

let test_spool_torn_tail_is_valid_prefix () =
  (* A crash mid-append must cost at most the torn block: the reader
     returns the complete prefix and flags the spool as unfinished. *)
  with_temp_file (fun path ->
      let w = Durable.Spool.create path in
      Durable.Spool.add_block w "first";
      Durable.Spool.add_block w "second";
      Durable.Spool.close w;
      let bytes = read_file path in
      (* Cut inside the last block's payload, dropping the footer too. *)
      spew path (String.sub bytes 0 (String.length bytes - 30));
      match Durable.Spool.read path with
      | Ok (blocks, complete) ->
          Alcotest.(check bool) "flagged incomplete" false complete;
          Alcotest.(check (list string)) "valid prefix survives" [ "first" ] blocks
      | Error e -> Alcotest.fail (Durable.Spool.error_to_string ~path e))

let test_spool_damaged_block_ends_prefix () =
  (* A payload byte flipped at rest no longer matches its frame's tag:
     the damaged block and everything after it drop out of the valid
     prefix, and the spool reads back incomplete. *)
  with_temp_file (fun path ->
      let w = Durable.Spool.create path in
      List.iter (Durable.Spool.add_block w) [ "first"; "second"; "third" ];
      Durable.Spool.close w;
      flip_byte path ~pos:(block_payload_start (read_file path) ~block:1 + 3);
      match Durable.Spool.read path with
      | Ok (blocks, complete) ->
          Alcotest.(check bool) "flagged incomplete" false complete;
          Alcotest.(check (list string)) "prefix ends at the damage" [ "first" ] blocks
      | Error e -> Alcotest.fail (Durable.Spool.error_to_string ~path e))

let test_spool_bad_header_rejected () =
  with_temp_file (fun path ->
      spew path "not a spool\n#block 0 bytes=1\nx\n";
      match Durable.Spool.read path with
      | Ok _ -> Alcotest.fail "a foreign file must not parse as a spool"
      | Error e ->
          Alcotest.(check bool) "error names the file" true
            (contains (Durable.Spool.error_to_string ~path e) path))

(* A spool of the previous format is refused by its version, in one
   line; a later or malformed version is a foreign file. *)
let test_spool_old_version_refused () =
  with_temp_file (fun path ->
      let w = Durable.Spool.create path in
      List.iter (Durable.Spool.add_block w) [ "day=0\n"; "trailer\n" ];
      Durable.Spool.close w;
      let raw = read_file path in
      let body = String.sub raw (String.index raw '\n') (String.length raw - String.index raw '\n') in
      let with_header h =
        spew path (h ^ body);
        Durable.Spool.read path
      in
      (match with_header "#tlsharm-spool v2" with
      | Error (Durable.Spool.Old_version 2 as e) ->
          let msg = Durable.Spool.error_to_string ~path e in
          Alcotest.(check bool) "names the path and both versions" true
            (contains msg path && contains msg "v2" && contains msg "v3");
          Alcotest.(check bool) "one line" false (String.contains msg '\n')
      | _ -> Alcotest.fail "a v2 spool must be refused by version");
      List.iter
        (fun h ->
          match with_header h with
          | Error Durable.Spool.Not_a_spool -> ()
          | _ -> Alcotest.failf "%S must read as a foreign file" h)
        [ "#tlsharm-spool v4"; "#tlsharm-spool v02"; "#tlsharm-spool v2 "; "#tlsharm-spool" ])

(* --- Streamed kill-and-resume ------------------------------------------------------- *)

let spool_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> (n, Digest.to_hex (Digest.file (Filename.concat dir n))))

let test_streamed_kill_resume_identity () =
  (* A run keeps no rows, so the run log alone carries the campaign:
     kill mid-campaign, resume (at a different worker count) into the
     same directory, and the directory ends file-for-file identical to
     an uninterrupted run's, reassembling to the reference archive. *)
  let reference = Lazy.force parallel_reference in
  with_temp_dir (fun dir ->
      let killed = Filename.concat dir "killed" and clean = Filename.concat dir "clean" in
      kill_parallel killed;
      (* The killed run leaves footer-less spools behind; the loader must
         refuse them rather than serve a partial archive. *)
      (match Scanner.Daily_scan.load_stream killed with
      | Ok _ -> Alcotest.fail "interrupted streamed archive must not load"
      | Error _ -> ());
      run_streamed ~config:parallel_config ~days:parallel_days ~jobs:4 killed;
      run_streamed ~config:parallel_config ~days:parallel_days clean;
      Alcotest.(check (list (pair string string))) "resumed run log equals the clean one"
        (spool_files clean) (spool_files killed);
      Alcotest.(check bool) "streamed resume is byte-identical" true
        (String.equal (loaded_bytes killed) reference))

(* A run log of the previous format (stream schema 2, v2 spools whose
   day blocks carry HMAC-DRBG states) is refused in one line by the
   loader and by a resume's re-attach, and nothing in it changes. With
   the manifest current and only the spools old, the loader names the
   spool version. *)
let test_v2_run_log_refused () =
  with_temp_dir (fun dir ->
      let run = Filename.concat dir "run" in
      run_streamed ~days:1 run;
      let mpath = Filename.concat run "manifest" in
      let current = match Durable.Atomic_io.read mpath with Ok m -> m | Error _ -> Alcotest.fail "manifest" in
      let relabel ~from ~to_ text =
        String.split_on_char '\n' text
        |> List.map (fun l -> if String.equal l from then to_ else l)
        |> String.concat "\n"
      in
      Durable.Atomic_io.write mpath
        (relabel ~from:("schema=" ^ Scanner.Stream_sink.schema) ~to_:"schema=tlsharm-stream/2" current);
      let spool = first_spool run in
      spew spool (relabel ~from:"#tlsharm-spool v3" ~to_:"#tlsharm-spool v2" (read_file spool));
      let before = spool_files run in
      let one_line what needle = function
        | Ok _ -> Alcotest.failf "%s: a v2 run log must be refused" what
        | Error e ->
            Alcotest.(check bool) (what ^ " names the version") true (contains e needle);
            Alcotest.(check bool) (what ^ " is one line") false (String.contains e '\n')
      in
      one_line "load" "tlsharm-stream/2" (Scanner.Daily_scan.load_stream run);
      one_line "re-attach" "tlsharm-stream/2"
        (Result.map ignore (Scanner.Stream_sink.create ~dir:run ~manifest:[]));
      Alcotest.(check (list (pair string string))) "left as it was" before (spool_files run);
      Durable.Atomic_io.write mpath current;
      one_line "load of v2 spools" "spool format v2" (Scanner.Daily_scan.load_stream run))

(* A run log of stream schema 3, whose day blocks carried scan state,
   is refused by its schema name in one line by the loader and by a
   resume's re-attach, and nothing in it changes. *)
let test_v3_run_log_refused () =
  with_temp_dir (fun dir ->
      let run = Filename.concat dir "run" in
      run_streamed ~days:1 run;
      let mpath = Filename.concat run "manifest" in
      let current = match Durable.Atomic_io.read mpath with Ok m -> m | Error _ -> Alcotest.fail "manifest" in
      Durable.Atomic_io.write mpath
        (String.split_on_char '\n' current
        |> List.map (fun l ->
               if String.equal l ("schema=" ^ Scanner.Stream_sink.schema) then "schema=tlsharm-stream/3"
               else l)
        |> String.concat "\n");
      let before = spool_files run in
      let refused what = function
        | Ok _ -> Alcotest.failf "%s: a tlsharm-stream/3 run log must be refused" what
        | Error e ->
            Alcotest.(check bool) (what ^ " names the schema") true (contains e "tlsharm-stream/3");
            Alcotest.(check bool) (what ^ " is one line") false (String.contains e '\n')
      in
      refused "load" (Result.map ignore (Scanner.Daily_scan.load_stream run));
      refused "re-attach" (Result.map ignore (Scanner.Stream_sink.create ~dir:run ~manifest:[]));
      Alcotest.(check (list (pair string string))) "left as it was" before (spool_files run))

(* --- Stream loaders under damage ------------------------------------------------------

   A sealed campaign log and a sealed traffic log, each damaged by one
   flipped byte anywhere in one spool: the loaders must answer with a
   typed [Error] — never an exception, and never an [Ok] over a silently
   different archive. *)

let damage_corpus =
  lazy
    (let root = Filename.temp_file "tlsharm-durable" ".corpus" in
     Sys.remove root;
     Sys.mkdir root 0o755;
     at_exit (fun () -> rm_rf root);
     let campaign = Filename.concat root "campaign" and traffic = Filename.concat root "traffic" in
     run_streamed ~config:parallel_config ~days:2 campaign;
     let cfg =
       {
         Traffic.Population.default_config with
         Traffic.Population.users = 45;
         days = 2;
         shard_users = 16;
         pages_per_day = 1.5;
         world =
           {
             Simnet.World.default_config with
             Simnet.World.n_domains = 1500;
             seed = "durable-traffic";
           };
       }
     in
     let sink =
       match Scanner.Stream_sink.create ~dir:traffic ~manifest:[ ("mode", "traffic") ] with
       | Ok s -> s
       | Error e -> failwith e
     in
     ignore (Traffic.Population.run ~jobs:1 ~sink cfg);
     (campaign, traffic))

let prop_stream_loaders_typed =
  QCheck2.Test.make ~name:"stream loaders typed under spool byte flips" ~count:60
    QCheck2.Gen.(triple bool nat nat)
    (fun (traffic, file, pos) ->
      let campaign_dir, traffic_dir = Lazy.force damage_corpus in
      let dir = if traffic then traffic_dir else campaign_dir in
      let spools =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.filter (fun n -> not (String.equal n "manifest"))
      in
      let name = List.nth spools (file mod List.length spools) in
      let path = Filename.concat dir name in
      let pristine = read_file path in
      let p = pos mod String.length pristine in
      flip_byte path ~pos:p;
      let load () =
        if traffic then
          Scanf.sscanf name "rows-users-%d" (fun shard ->
              Result.map ignore (Traffic.Traffic_sink.read_shard ~dir ~shard))
        else Result.map ignore (Scanner.Daily_scan.load_stream dir)
      in
      Fun.protect
        ~finally:(fun () -> spew path pristine)
        (fun () ->
          match load () with
          | Error _ -> true
          | Ok () -> QCheck2.Test.fail_reportf "flip at byte %d of %s loaded Ok" p name
          | exception e ->
              QCheck2.Test.fail_reportf "flip at byte %d of %s raised %s" p name
                (Printexc.to_string e)))

(* --- Cut points ----------------------------------------------------------------------

   Every state a crash can leave the run log in, enumerated instead of
   sampled by kill timing: one multi-block spool cut at each of its
   block boundaries (the empty file, the bare header, after each day
   block, and after the trailer with the footer lost) and at seeded
   offsets inside its blocks, and one mixed state across two spools.
   Each cut copy of an uninterrupted run's log is resumed at one and at
   two workers and must come back byte for byte equal to the
   uninterrupted log, and resuming it once more must change nothing. *)

let read_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> (n, read_file (Filename.concat dir n)))

(* Offsets of the spool's frame lines, the block boundaries: each is
   the start of a line that begins with '#' (no payload line does). *)
let block_boundaries raw =
  List.filter
    (fun i -> raw.[i] = '#' && (i = 0 || raw.[i - 1] = '\n'))
    (List.init (String.length raw) Fun.id)

(* [n] seeded offsets strictly inside the spool's blocks. *)
let inside_offsets ~n raw =
  let bounds = block_boundaries raw in
  let first = List.nth bounds 1 in
  let rng = Random.State.make [| String.length raw |] in
  let rec pick acc =
    if List.length acc = n then List.sort compare acc
    else
      let p = first + 1 + Random.State.int rng (String.length raw - first - 1) in
      if List.mem p bounds || List.mem p acc then pick acc else pick (p :: acc)
  in
  pick []

let cut_file name at files =
  List.map (fun (n, b) -> if String.equal n name then (n, String.sub b 0 at) else (n, b)) files

(* A traffic shard re-run into a partial spool that another world wrote
   under the same manifest must refuse to graft onto it. The partial
   spool is a sealed one cut after its first day block. *)
let test_traffic_rerun_mismatches () =
  let run seed dir =
    let cfg =
      {
        Traffic.Population.default_config with
        Traffic.Population.users = 30;
        days = 2;
        shard_users = 16;
        pages_per_day = 1.5;
        world = { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed };
      }
    in
    ignore
      (Traffic.Population.run ~jobs:1 ~sink:(create_sink ~manifest:[ ("mode", "traffic") ] dir) cfg)
  in
  let reference =
    with_temp_dir (fun dir ->
        run "durable-traffic" dir;
        read_dir dir)
  in
  let spool = "rows-users-0000" in
  let after_day_0 =
    match block_boundaries (List.assoc spool reference) with
    | _ :: _ :: b1 :: _ -> b1
    | _ -> Alcotest.failf "%s holds fewer than two blocks" spool
  in
  with_temp_dir (fun dir ->
      List.iter (fun (n, b) -> spew (Filename.concat dir n) b) (cut_file spool after_day_0 reference);
      Alcotest.(check (pair int bool))
        "shard 0 recorded one day, unsealed" (1, false)
        (let blocks, complete = recorded_blocks (Filename.concat dir spool) in
         (List.length blocks, complete));
      match run "other-world" dir with
      | () -> Alcotest.fail "another world must not re-run into this spool"
      | exception Scanner.Stream_sink.Mismatch _ -> ())

(* The cuts of one log: [first] at every block boundary and at seeded
   inner offsets, then [first] and [second] both cut halfway through
   their second block. *)
let cuts reference ~first ~second =
  let raw name = List.assoc name reference in
  let one at = (Printf.sprintf "%s cut at byte %d" first at, cut_file first at reference) in
  let mid_block_1 name =
    match block_boundaries (raw name) with
    | _ :: _ :: b1 :: b2 :: _ -> (b1 + b2) / 2
    | _ -> Alcotest.failf "%s holds fewer than two blocks" name
  in
  let mixed =
    ( Printf.sprintf "%s and %s cut inside block 1" first second,
      cut_file second (mid_block_1 second) (cut_file first (mid_block_1 first) reference) )
  in
  List.map one (block_boundaries (raw first) @ inside_offsets ~n:3 (raw first)) @ [ mixed ]

let check_resumes ~reference ~resume cuts =
  let same dir = List.map (fun (n, b) -> (n, List.assoc_opt n reference = Some b)) (read_dir dir) in
  let want = List.map (fun (n, _) -> (n, true)) reference in
  List.iter
    (fun (what, files) ->
      List.iter
        (fun jobs ->
          with_temp_dir (fun dir ->
              List.iter (fun (n, b) -> spew (Filename.concat dir n) b) files;
              resume ~jobs dir;
              Alcotest.(check (list (pair string bool)))
                (Printf.sprintf "%s, jobs=%d: the resumed log equals the uninterrupted one" what jobs)
                want (same dir);
              resume ~jobs dir;
              Alcotest.(check (list (pair string bool)))
                (Printf.sprintf "%s, jobs=%d: a second resume changes nothing" what jobs)
                want (same dir)))
        [ 1; 2 ])
    cuts

let cut_config = { parallel_config with Simnet.World.seed = "durable-cuts" }

let test_campaign_cut_points () =
  let reference =
    with_temp_dir (fun dir ->
        run_streamed ~config:cut_config ~days:3 dir;
        read_dir dir)
  in
  check_resumes ~reference
    ~resume:(fun ~jobs dir -> run_streamed ~config:cut_config ~days:3 ~jobs dir)
    (cuts reference ~first:"rows-shard-0000" ~second:"rows-shard-0001")

let test_traffic_cut_points () =
  let cfg =
    {
      Traffic.Population.default_config with
      Traffic.Population.users = 30;
      days = 2;
      shard_users = 16;
      pages_per_day = 1.5;
      world =
        { Simnet.World.default_config with Simnet.World.n_domains = 1500; seed = "durable-traffic" };
    }
  in
  let run ~jobs dir = ignore (Traffic.Population.run ~jobs ~sink:(create_sink ~manifest:[ ("mode", "traffic") ] dir) cfg) in
  let reference =
    with_temp_dir (fun dir ->
        run ~jobs:1 dir;
        read_dir dir)
  in
  check_resumes ~reference ~resume:run
    (cuts reference ~first:"rows-users-0000" ~second:"rows-users-0001")

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "durable"
    [
      ( "atomic-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_atomic_roundtrip;
          Alcotest.test_case "legacy passthrough" `Quick test_atomic_legacy_passthrough;
          Alcotest.test_case "missing and empty" `Quick test_atomic_missing_and_empty;
          Alcotest.test_case "detects truncation" `Quick test_atomic_detects_truncation;
          Alcotest.test_case "detects bit flips" `Quick test_atomic_detects_bit_flip;
          Alcotest.test_case "failed write leaves no trace" `Quick
            test_atomic_failed_write_leaves_no_trace;
        ] );
      qsuite "atomic-io-properties" [ prop_atomic_roundtrip ];
      qsuite "corruption-corpus"
        [
          prop_atomic_flip_detected;
          prop_atomic_truncation_detected;
          prop_spool_flip_total;
          prop_spool_truncation_total;
          prop_stream_loaders_typed;
        ];
      ( "campaign-archive",
        [ Alcotest.test_case "load rejects damage" `Slow test_campaign_load_rejects_damage ] );
      ( "checkpoint",
        [
          Alcotest.test_case "manifest roundtrip" `Quick test_checkpoint_manifest_roundtrip;
          Alcotest.test_case "attach errors" `Quick test_checkpoint_attach_errors;
          Alcotest.test_case "valid prefix" `Quick test_checkpoint_valid_prefix;
        ] );
      qsuite "serialization-properties"
        [ prop_funnel_lines_roundtrip; prop_drbg_state_roundtrip ];
      ( "serialization",
        [
          Alcotest.test_case "funnel rejects garbage" `Quick test_funnel_of_lines_rejects_garbage;
          Alcotest.test_case "drbg rejects bad state" `Quick test_drbg_restore_rejects_bad_state;
        ] );
      ( "serial-resume",
        [
          Alcotest.test_case "kill/resume byte identity" `Slow test_serial_kill_resume_identity;
          Alcotest.test_case "corrupt newest falls back" `Slow
            test_serial_corrupt_newest_falls_back;
          Alcotest.test_case "wrong world mismatches" `Slow test_resume_wrong_world_mismatches;
        ] );
      ( "spool",
        [
          Alcotest.test_case "roundtrip" `Quick test_spool_roundtrip;
          Alcotest.test_case "torn tail is valid prefix" `Quick
            test_spool_torn_tail_is_valid_prefix;
          Alcotest.test_case "bad header rejected" `Quick test_spool_bad_header_rejected;
          Alcotest.test_case "v2 spool refused by version" `Quick test_spool_old_version_refused;
          Alcotest.test_case "damaged block ends prefix" `Quick
            test_spool_damaged_block_ends_prefix;
        ] );
      ( "v2-run-log",
        [ Alcotest.test_case "refused by version" `Quick test_v2_run_log_refused ] );
      ( "v3-run-log",
        [ Alcotest.test_case "refused by schema name" `Quick test_v3_run_log_refused ] );
      ( "parallel-resume",
        [
          Alcotest.test_case "kill/resume across worker counts" `Slow
            test_parallel_kill_resume_identity;
          Alcotest.test_case "streamed kill/resume byte identity" `Slow
            test_streamed_kill_resume_identity;
          Alcotest.test_case "raising shard fails the run" `Slow test_raising_shard_fails_run;
          Alcotest.test_case "kept funnel from trailers" `Slow test_kept_funnel_from_trailers;
          Alcotest.test_case "traffic re-run mismatches" `Slow test_traffic_rerun_mismatches;
        ] );
      ( "cut-points",
        [
          Alcotest.test_case "campaign resumes from every cut" `Slow test_campaign_cut_points;
          Alcotest.test_case "traffic resumes from every cut" `Slow test_traffic_cut_points;
        ] );
    ]
