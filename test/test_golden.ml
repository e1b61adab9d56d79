(* Byte-identity guard for the crypto kernels.

   The optimized kernels (windowed Montgomery exponentiation, wNAF and
   fixed-base comb scalar multiplication) must be *observably equivalent*
   to the seed-era ones: same public values, same handshake bytes, same
   campaign CSV. This test replays a small fault-free campaign and asserts
   the observation CSV is byte-for-byte identical to a golden file that
   was produced by the pre-optimization build (see golden/README.md). A
   kernel change that alters any measured byte fails here, loudly, before
   it can silently shift results. *)

open Helpers

(* Under `dune runtest` the glob_files dep in test/dune copies the golden
   file next to this executable; resolve it from there so the test also
   works when cwd is the workspace root. *)
let golden_path name =
  let beside_exe = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "golden" name) in
  if Sys.file_exists beside_exe then beside_exe else Filename.concat "golden" name

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
let create_sink ~dir ~manifest =
  match Scanner.Stream_sink.create ~dir ~manifest with Ok s -> s | Error e -> Alcotest.fail e

let test_stream_byte_identity () =
  with_temp_dir (fun dir ->
      let world = Simnet.World.create ~config:golden_config () in
      let sink = create_sink ~dir ~manifest:(Scanner.Parallel_campaign.manifest world ~days:2) in
      Scanner.Parallel_campaign.run ~jobs:1 ~sink world ~days:2 ();
      match Scanner.Daily_scan.load_stream dir with
      | Ok campaign -> check_golden campaign
      | Error e -> Alcotest.fail e)

(* The traffic log of [tlsharm traffic --domains 1500 --users 300 --days 2
   --shard-users 150 --stream-out DIR]: its manifest and both spools must
   hash to the digests pinned in golden/traffic_stream.sha256 (sha256sum
   format). The campaign never opens a ticket; this run resumes through
   ticket decryption, so it is what pins the AES, CBC and ticket codec
   bytes. *)
let traffic_config =
  {
    Traffic.Population.default_config with
    users = 300;
    days = 2;
    shard_users = 150;
    world = { Simnet.World.default_config with n_domains = 1500 };
  }

let test_traffic_stream_digests () =
  with_temp_dir (fun dir ->
      let sink = create_sink ~dir ~manifest:(Traffic.Population.manifest traffic_config) in
      ignore (Traffic.Population.run ~jobs:1 ~sink traffic_config);
      let want = read_file (golden_path "traffic_stream.sha256") in
      let got =
        Sys.readdir dir |> Array.to_list |> List.sort String.compare
        |> List.map (fun name ->
               Printf.sprintf "%s  %s\n"
                 (Wire.Hex.encode (Crypto.Sha256.digest (read_file (Filename.concat dir name))))
                 name)
        |> String.concat ""
      in
      Alcotest.(check string) "manifest and spool digests" want got;
      let ticket_resumptions =
        List.fold_left
          (fun n shard ->
            match Traffic.Traffic_sink.read_shard ~dir ~shard with
            | Error e -> Alcotest.fail e
            | Ok (rows, _) ->
                n + List.length (List.filter (fun r -> r.Traffic.Row.resumed = R_ticket) rows))
          0 [ 0; 1 ]
      in
      Alcotest.(check bool) "the run resumed a ticket" true (ticket_resumptions > 0))

(* The study's point experiments under a profile that fires. Each
   experiment's probes must go through the study's injector and funnel:
   one that lost either would move a row of the funnel (its days' probe,
   retry or loss counts) or Table 1's reuse shares. The expected text is
   what [tlsharm experiment funnel t1 --fault-profile default --domains
   1500 --days 2] prints (see golden/README.md). *)
let test_study_under_faults () =
  let config =
    {
      Tlsharm.Study.default_config with
      world_config = { Simnet.World.default_config with n_domains = 1500 };
      campaign_days = 2;
      fault_profile = Faults.Profile.default;
    }
  in
  let study = Tlsharm.Study.create ~config () in
  let t1 = List.assoc "t1" Tlsharm.Experiments.by_name in
  let got = Tlsharm.Study.funnel_report study ^ "\n" ^ t1 study ^ "\n" in
  Alcotest.(check string) "funnel and table 1" (read_file (golden_path "study_faults.txt")) got

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
      ( "traffic",
        [ Alcotest.test_case "stream digests pinned" `Quick test_traffic_stream_digests ] );
      ( "study",
        [ Alcotest.test_case "point experiments under faults" `Quick test_study_under_faults ] );
    ]
