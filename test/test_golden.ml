(* Byte-identity guard for the crypto kernels.

   The optimized kernels (windowed Montgomery exponentiation, wNAF and
   fixed-base comb scalar multiplication) must be *observably equivalent*
   to the seed-era ones: same public values, same handshake bytes, same
   campaign CSV. This test replays a small fault-free campaign and asserts
   the observation CSV is byte-for-byte identical to a golden file that
   was produced by the pre-optimization build (see golden/README.md). A
   kernel change that alters any measured byte fails here, loudly, before
   it can silently shift results. *)

(* Under `dune runtest` the glob_files dep in test/dune copies the golden
   file next to this executable; resolve it from there so the test also
   works when cwd is the workspace root. *)
let golden_path name =
  let beside_exe = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "golden" name) in
  if Sys.file_exists beside_exe then beside_exe else Filename.concat "golden" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_config = { Simnet.World.default_config with n_domains = 1500; seed = "golden-kernels" }

let check_golden campaign =
  let tmp = Filename.temp_file "tlsharm-golden" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Scanner.Daily_scan.save campaign tmp;
      let got = read_file tmp in
      let want = read_file (golden_path "campaign_seed.csv") in
      (* Compare lengths first for a readable failure; the string check
         would drown the terminal with 300 KB of CSV. *)
      Alcotest.(check int) "csv length" (String.length want) (String.length got);
      Alcotest.(check bool) "csv bytes identical" true (String.equal want got))

(* The campaign is read back from its run log, as every campaign is, so
   this checks the scanner, the log's codec and the CSV export at once. *)
let test_campaign_byte_identity () =
  let world = Simnet.World.create ~config:golden_config () in
  check_golden (Scanner.Parallel_campaign.collect ~jobs:1 world ~days:2)

(* The same campaign logged to a named sink directory that outlives the
   run: reassembling the log left on disk must give the golden bytes too. *)
let test_stream_byte_identity () =
  let dir = Filename.temp_file "tlsharm-golden" ".d" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let world = Simnet.World.create ~config:golden_config () in
      let sink =
        match Scanner.Stream_sink.create ~dir ~manifest:(Scanner.Parallel_campaign.manifest world ~days:2) with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      Scanner.Parallel_campaign.run ~jobs:1 ~sink world ~days:2 ();
      match Scanner.Daily_scan.load_stream dir with
      | Ok campaign -> check_golden campaign
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "golden"
    [
      ( "campaign",
        [
          Alcotest.test_case "byte-identical to seed-era kernels" `Quick
            test_campaign_byte_identity;
          Alcotest.test_case "stream path byte-identical to seed-era kernels" `Quick
            test_stream_byte_identity;
        ] );
    ]
