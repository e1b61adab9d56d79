(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation against a freshly simulated world, prints the
   Section 7.2 target analysis and the Section 8.2 mitigation ablations,
   and runs a bechamel microbenchmark suite over the cryptographic
   operations the crypto shortcuts exist to avoid.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe t1 f3 google    run selected experiments
     bench/main.exe micro           microbenchmarks only (writes BENCH_crypto.json)
     bench/main.exe ablations       section 8.2 what-ifs only
     bench/main.exe parallel        1-worker vs N-worker campaign wall-clock
     bench/main.exe traffic         client-population runner throughput + speedup
     bench/main.exe phases          per-phase campaign telemetry breakdown
     bench/main.exe faults          fault-injected campaign + loss funnel
     bench/main.exe check-baseline  compare BENCH_crypto.json to BENCH_baseline.json

   The `micro`, `parallel`, `traffic` and `phases` entries additionally
   emit machine-readable results to BENCH_crypto.json ("kernels",
   "campaign", "traffic" and "phases" sections respectively; see
   README.md for the format), and `check-baseline` exits nonzero if any
   kernel regressed more than 2x against the committed baseline — the
   CI bench smoke step.

   Environment:
     TLSHARM_DOMAINS   sampled world size (default 4000)
     TLSHARM_DAYS      campaign length in days (default 63)
     TLSHARM_SEED      world seed (default "tlsharm")
     TLSHARM_JOBS      campaign worker domains (default 1 for the study tables;
                       the `parallel` and `traffic` entries gate their scheduled
                       speedup at this worker count, defaulting to
                       max 2 (recommended cores))
     TLSHARM_BENCH_MS  per-kernel timing budget in ms (default 200; CI uses
                       a reduced budget)
     TLSHARM_TRAFFIC_USERS / _SHARD / _DAYS
                       traffic bench population shape (default 1024 users,
                       128-user shards, 3 days) *)

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          Printf.eprintf "bench: %s=%S is not an integer\n" name v;
          exit 2)

let study_config () =
  {
    Tlsharm.Study.world_config =
      {
        Simnet.World.default_config with
        Simnet.World.n_domains = env_int "TLSHARM_DOMAINS" 4000;
        seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
      };
    campaign_days = env_int "TLSHARM_DAYS" 63;
    jobs = env_int "TLSHARM_JOBS" 1;
    verbose = true;
    (* The bench study stays fault-free so every table and figure is
       byte-identical to the pre-fault harness; the dedicated "faults"
       entry below exercises injection explicitly. *)
    fault_profile = Faults.Profile.none;
    retry = Faults.Retry.default;
    obs = Obs.Recorder.null;
  }

let study = lazy (Tlsharm.Study.create ~config:(study_config ()) ())

(* --- Section 7.2 ------------------------------------------------------------- *)

let google_analysis () =
  let study = Lazy.force study in
  let a = Tlsharm.Target_analysis.analyze study ~operator:"google" ~flagship:"google.com" in
  Tlsharm.Target_analysis.report a
  ^ "\n"
  ^ Tlsharm.Target_analysis.static_stek_contrast study ~flagship:"yandex.ru"
  ^ "\n"

(* --- Machine-readable bench output ------------------------------------------- *)

let bench_json_path () =
  Option.value (Sys.getenv_opt "TLSHARM_BENCH_OUT") ~default:"BENCH_crypto.json"

(* Replace one top-level section of BENCH_crypto.json, preserving the
   others, so `micro` (kernels) and `parallel` (campaign) can each run
   alone without clobbering the other's results. *)
let update_bench_json section value =
  let path = bench_json_path () in
  let existing =
    match (try Json_io.load path with Json_io.Parse_error _ -> None) with
    | Some (Json_io.Obj fields) -> List.remove_assoc section fields
    | _ -> []
  in
  let fields = ("schema", Json_io.Str "tlsharm-bench/1") :: List.remove_assoc "schema" existing in
  Json_io.save path (Json_io.Obj (fields @ [ (section, value) ]))

(* --- Crypto-kernel benchmarks -------------------------------------------------- *)

(* Hand-rolled timing for the kernel comparison: bechamel's OLS machinery
   is great for the handshake table, but here we need a denominator — the
   retained seed-era kernels — measured under the same loop, and a knob
   (TLSHARM_BENCH_MS) small enough for a CI smoke run. Chunked so the
   clock is read O(log n) times, not per call. *)
let ns_per_op f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let budget = float_of_int (env_int "TLSHARM_BENCH_MS" 200) /. 1000.0 in
  let t0 = Unix.gettimeofday () in
  let total = ref 0 in
  let chunk = ref 1 in
  let elapsed = ref 0.0 in
  while !elapsed < budget do
    for _ = 1 to !chunk do
      ignore (Sys.opaque_identity (f ()))
    done;
    total := !total + !chunk;
    elapsed := Unix.gettimeofday () -. t0;
    if !elapsed < budget /. 8.0 then chunk := !chunk * 2
  done;
  !elapsed /. float_of_int !total *. 1e9

(* RFC 3526 group 14: the 2048-bit MODP prime, the production-sized DHE
   modulus of the study period. *)
let modp2048 =
  Crypto.Bignum.of_hex
    ("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
   ^ "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
   ^ "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
   ^ "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
   ^ "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
   ^ "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
   ^ "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
   ^ "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF")

(* Each kernel is timed twice under the same loop: the optimized path and
   the verbatim seed-era reference; the ratio is the recorded speedup.
   Inputs are DRBG-derived so runs are reproducible, and each pair is
   checked for agreement before timing — a bench that measures a wrong
   kernel fast is worse than no bench. *)
let kernel_benches () =
  let module B = Crypto.Bignum in
  let module Ec = Crypto.Ec in
  let rng = Crypto.Drbg.create ~seed:"bench-kernels" in
  let ctx2048 = B.mont_of_modulus modp2048 in
  let base2048 = Crypto.Drbg.bignum_below rng modp2048 in
  let e256 = B.of_bytes_be (Crypto.Drbg.generate rng 32) in
  let fb2048 = B.fixed_base ctx2048 B.two ~max_bits:256 in
  let sim_group = Crypto.Dh.generate ~bits:64 ~seed:"bench" in
  let sim_p = Crypto.Dh.group_p sim_group in
  let sim_ctx = B.mont_of_modulus sim_p in
  let sim_base = Crypto.Drbg.bignum_below rng sim_p in
  let sim_e = B.of_bytes_be (Crypto.Drbg.generate rng 8) in
  let k_p256 = Crypto.Drbg.bignum_below rng (Ec.curve_order Ec.p256) in
  let q_p256 = Ec.Reference.scalar_mult_base Ec.p256 (B.of_int 7919) in
  let sim_curve = Ec.generate_small ~bits:61 ~seed:"bench" in
  let k_sim = Crypto.Drbg.bignum_below rng (Ec.curve_order sim_curve) in
  (* 2^31 - 1: the largest modulus the native-word pow_mod fast path
     accepts; exercises the skip-Montgomery-entirely branch. *)
  let m31 = B.of_int 0x7fffffff in
  let ctx31 = B.mont_of_modulus m31 in
  let base31 = Crypto.Drbg.bignum_below rng m31 in
  let e31 = B.of_bytes_be (Crypto.Drbg.generate rng 8) in
  (* Field-level micro-kernels: the specialized P-256 backend against the
     generic Montgomery field on the same operands. *)
  let module P = Crypto.P256_field in
  let fp = B.Field.create P.modulus in
  let fa = Crypto.Drbg.bignum_below rng P.modulus in
  let fb = Crypto.Drbg.bignum_below rng P.modulus in
  let pst = P.create_state () in
  let pa = P.of_bignum fa and pb = P.of_bignum fb and pdst = P.zero () in
  let ga = B.Field.of_bignum fp fa and gb = B.Field.of_bignum fp fb in
  let p_mul () =
    P.mul pst pdst pa pb;
    pdst
  in
  let p_sqr () =
    P.sqr pst pdst pa;
    pdst
  in
  let g_mul () = B.Field.mul fp ga gb in
  let g_sqr () = B.Field.sqr fp ga in
  let bn name f g = (name, (fun () -> ignore (Sys.opaque_identity (f ()))), (fun () -> ignore (Sys.opaque_identity (g ()))), B.equal (f ()) (g ())) in
  let pt name f g = (name, (fun () -> ignore (Sys.opaque_identity (f ()))), (fun () -> ignore (Sys.opaque_identity (g ()))), f () = g ()) in
  let fe name f g =
    ( name,
      (fun () -> ignore (Sys.opaque_identity (f ()))),
      (fun () -> ignore (Sys.opaque_identity (g ()))),
      B.equal (P.to_bignum (f ())) (B.Field.to_bignum fp (g ())) )
  in
  [
    bn "pow_mod-2048"
      (fun () -> B.pow_mod_ctx ctx2048 base2048 e256)
      (fun () -> B.Reference.pow_mod_ctx ctx2048 base2048 e256);
    bn "pow_mod-fixed-base-2048"
      (fun () -> B.pow_mod_fixed fb2048 e256)
      (fun () -> B.Reference.pow_mod_ctx ctx2048 B.two e256);
    bn "pow_mod-sim64"
      (fun () -> B.pow_mod_ctx sim_ctx sim_base sim_e)
      (fun () -> B.Reference.pow_mod_ctx sim_ctx sim_base sim_e);
    bn "pow_mod-native31"
      (fun () -> B.pow_mod_ctx ctx31 base31 e31)
      (fun () -> B.Reference.pow_mod_ctx ctx31 base31 e31);
    fe "field_mul-p256" p_mul g_mul;
    fe "field_sqr-p256" p_sqr g_sqr;
    pt "scalar_mult_base-p256"
      (fun () -> Ec.scalar_mult_base Ec.p256 k_p256)
      (fun () -> Ec.Reference.scalar_mult_base Ec.p256 k_p256);
    pt "scalar_mult-p256"
      (fun () -> Ec.scalar_mult Ec.p256 k_p256 q_p256)
      (fun () -> Ec.Reference.scalar_mult Ec.p256 k_p256 q_p256);
    pt "scalar_mult_base-sim61"
      (fun () -> Ec.scalar_mult_base sim_curve k_sim)
      (fun () -> Ec.Reference.scalar_mult_base sim_curve k_sim);
  ]

let kernel_report () =
  let pretty ns =
    if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
    else if ns < 1_000_000.0 then Printf.sprintf "%.1f us" (ns /. 1e3)
    else Printf.sprintf "%.2f ms" (ns /. 1e6)
  in
  let measured =
    List.map
      (fun (name, opt, reference, agree) ->
        if not agree then failwith (Printf.sprintf "bench: kernel %s disagrees with reference" name);
        let ns_new = ns_per_op opt in
        let ns_ref = ns_per_op reference in
        (name, ns_new, ns_ref))
      (kernel_benches ())
  in
  let json =
    Json_io.List
      (List.map
         (fun (name, ns_new, ns_ref) ->
           Json_io.Obj
             [
               ("name", Json_io.Str name);
               ("ns_per_op", Json_io.Num ns_new);
               ("ops_per_sec", Json_io.Num (1e9 /. ns_new));
               ("seed_ns_per_op", Json_io.Num ns_ref);
               ("speedup_vs_seed", Json_io.Num (ns_ref /. ns_new));
             ])
         measured)
  in
  update_bench_json "kernels" json;
  Analysis.Report.section "Crypto kernels: optimized vs seed-era reference"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Kernel"; "Optimized"; "Seed-era"; "Speedup" ]
      ~rows:
        (List.map
           (fun (name, ns_new, ns_ref) ->
             [ name; pretty ns_new; pretty ns_ref; Printf.sprintf "%.2fx" (ns_ref /. ns_new) ])
           measured)
  ^ Printf.sprintf "\n\nKernel section written to %s.\n" (bench_json_path ())

(* --- Baseline regression check -------------------------------------------------- *)

(* CI smoke: BENCH_crypto.json must exist, parse, and carry a well-formed
   kernel list; every kernel present in the committed baseline must still
   be measured and run no slower than half its baseline ops/sec. Each
   end-to-end section present ("campaign", "traffic", "faults",
   "regions") is gated too: its run must be deterministic and within
   the section's bound. *)
let check_baseline () =
  let fail msg =
    prerr_endline ("check-baseline: " ^ msg);
    exit 1
  in
  let load path =
    match (try Json_io.load path with Json_io.Parse_error e -> fail (path ^ ": " ^ e)) with
    | Some v -> v
    | None -> fail (path ^ ": missing")
  in
  let kernels v path =
    match Option.bind (Json_io.member "kernels" v) Json_io.to_list with
    | Some l when l <> [] -> l
    | _ -> fail (path ^ ": no \"kernels\" section")
  in
  let entry k path =
    match
      ( Option.bind (Json_io.member "name" k) Json_io.to_str,
        Option.bind (Json_io.member "ops_per_sec" k) Json_io.to_float )
    with
    | Some name, Some ops when ops > 0.0 -> (name, ops)
    | _ -> fail (path ^ ": malformed kernel entry")
  in
  let current_path = bench_json_path () in
  let baseline_path = "BENCH_baseline.json" in
  let current_json = load current_path in
  let current = List.map (fun k -> entry k current_path) (kernels current_json current_path) in
  let baseline_json = load baseline_path in
  let baseline = List.map (fun k -> entry k baseline_path) (kernels baseline_json baseline_path) in
  (* The end-to-end sections, one row each: the section, the bench entry
     that writes it and what it gates, its required numeric keys, what a
     false "deterministic" flag means, and the bound check, which renders
     the report line. A section is gated whenever its entry has run. *)
  let scheduled ~section ~what num =
    let jobs = int_of_float (num "jobs") in
    let n_shards = int_of_float (num "n_shards") in
    let speedup = num "parallel_speedup" in
    (* Floor: 0.8 x the effective worker count (jobs clamped to the shard
       count — a tiny world cannot occupy more workers than it has
       shards). *)
    let effective = min jobs (max 1 n_shards) in
    let floor = 0.8 *. float_of_int effective in
    if speedup < floor then
      fail
        (Printf.sprintf
           "%s: scheduled speedup %.2fx at %d jobs (%d shards) is below the %.2fx floor (0.8 x \
            %d) — %s regressed"
           section speedup jobs n_shards floor effective what);
    Printf.sprintf "scheduled speedup %.2fx at %d jobs over %d shards (floor %.2fx)" speedup jobs
      n_shards floor
  in
  let sections =
    [
      ( "campaign",
        ("parallel", "the parallel runner"),
        [ "jobs"; "n_shards"; "parallel_speedup" ],
        "1-worker and N-worker series differ (jobs-invariance broken)",
        fun num ->
          Printf.sprintf "Campaign: %s, jobs-invariant.\n"
            (scheduled ~section:"campaign" ~what:"shard packing or scheduling" num) );
      ( "traffic",
        ("traffic", "the population runner"),
        [ "jobs"; "n_shards"; "parallel_speedup"; "user_days_per_sec" ],
        "1-worker and N-worker rows differ (jobs-invariance broken)",
        fun num ->
          let sched = scheduled ~section:"traffic" ~what:"user sharding or scheduling" num in
          (* Throughput must stay within 2x of the committed baseline. *)
          let udps = num "user_days_per_sec" in
          (match
             Option.bind
               (Option.bind (Json_io.member "traffic" baseline_json)
                  (Json_io.member "user_days_per_sec"))
               Json_io.to_float
           with
          | Some base when udps < 0.5 *. base ->
              fail
                (Printf.sprintf "traffic: throughput regressed %.2fx (%.0f -> %.0f user-days/s)"
                   (base /. udps) base udps)
          | _ -> ());
          Printf.sprintf "Traffic: %.0f user-days/s, %s, jobs-invariant.\n" udps sched );
      (* Fault synthesis runs the real codecs on every injected byzantine
         decision, which must stay a bounded tax on probe throughput. *)
      ( "faults",
        ("faults", "byzantine overhead"),
        [ "byzantine_overhead"; "byzantine_losses" ],
        "surviving observations differ from the clean campaign (isolation broken)",
        fun num ->
          let overhead = num "byzantine_overhead" in
          if overhead > 3.0 then
            fail
              (Printf.sprintf
                 "faults: byzantine campaign overhead %.2fx exceeds the 3.0x ceiling — fault \
                  synthesis or the breaker path regressed"
                 overhead);
          Printf.sprintf
            "Faults: byzantine overhead %.2fx of clean (ceiling 3.0x), %.0f byzantine losses, \
             survivors byte-identical.\n"
            overhead (num "byzantine_losses") );
      ( "regions",
        ("regions", "the cross-vantage scan"),
        [ "rows"; "n_regions"; "rows_per_sec" ],
        "serial and parallel cross-vantage rows differ (jobs-invariance broken)",
        fun num ->
          Printf.sprintf "Regions: %.0f rows from %.0f vantages, %.0f rows/s, jobs-invariant.\n"
            (num "rows") (num "n_regions") (num "rows_per_sec") );
    ]
  in
  let gate (section, (entry, gates), keys, broken, check) =
    match Json_io.member section current_json with
    | None ->
        Printf.sprintf "No %S section in %s; run `bench %s` to gate %s.\n" section current_path
          entry gates
    | Some c ->
        let lacks key = fail (Printf.sprintf "%s: %s section lacks %S" current_path section key) in
        let num key =
          match Option.bind (Json_io.member key c) Json_io.to_float with
          | Some v -> v
          | None -> lacks key
        in
        List.iter (fun key -> ignore (num key)) keys;
        (match Json_io.member "deterministic" c with
        | Some (Json_io.Bool true) -> ()
        | Some (Json_io.Bool false) -> fail (section ^ ": " ^ broken)
        | _ -> lacks "deterministic");
        check num
  in
  let section_gates = String.concat "" (List.map gate sections) in
  let rows =
    List.map
      (fun (name, base_ops) ->
        match List.assoc_opt name current with
        | None -> fail (Printf.sprintf "kernel %S in baseline but not measured" name)
        | Some ops ->
            let ratio = ops /. base_ops in
            if ratio < 0.5 then
              fail
                (Printf.sprintf "kernel %S regressed %.2fx (%.0f -> %.0f ops/sec)" name
                   (base_ops /. ops) base_ops ops);
            [ name; Printf.sprintf "%.0f" base_ops; Printf.sprintf "%.0f" ops; Printf.sprintf "%.2fx" ratio ])
      baseline
  in
  (* Absolute speedup-vs-seed gates for the headline kernels: both sides
     of each pair are measured in the same run, so the ratio is immune to
     machine-speed drift that the raw ops/sec comparison above tolerates.
     Floors: the P-256 ladder must hold its >= 3x win over the seed-era
     reference, pow_mod-sim64 must never fall back below parity, and the
     specialized field kernels must stay clearly ahead of the generic
     Montgomery field. *)
  let speedup_of name =
    let rec go = function
      | [] -> fail (Printf.sprintf "%s: kernel %S missing for speedup gate" current_path name)
      | k :: rest -> (
          match Option.bind (Json_io.member "name" k) Json_io.to_str with
          | Some n when n = name -> (
              match Option.bind (Json_io.member "speedup_vs_seed" k) Json_io.to_float with
              | Some s -> s
              | None -> fail (Printf.sprintf "%s: kernel %S lacks speedup_vs_seed" current_path name))
          | _ -> go rest)
    in
    go (kernels current_json current_path)
  in
  let gate_speedup (name, floor) =
    let s = speedup_of name in
    if s < floor then
      fail
        (Printf.sprintf "kernel %S speedup %.2fx vs seed is below the %.2fx floor" name s floor);
    Printf.sprintf "%-24s %6.2fx vs seed (floor %.2fx)\n" name s floor
  in
  let speedup_gates =
    String.concat ""
      (List.map gate_speedup
         [
           ("scalar_mult-p256", 3.0);
           ("pow_mod-sim64", 1.0);
           ("field_mul-p256", 2.0);
           ("field_sqr-p256", 2.0);
         ])
  in
  Analysis.Report.section "Baseline check (current vs committed BENCH_baseline.json)"
  ^ "\n"
  ^ Analysis.Report.table ~headers:[ "Kernel"; "Baseline ops/s"; "Current ops/s"; "Ratio" ] ~rows
  ^ "\n\nAll kernels within 2x of baseline.\n" ^ speedup_gates ^ section_gates

(* --- Microbenchmarks ----------------------------------------------------------- *)

let microbenches () =
  let open Bechamel in
  let env = Tls.Config.sim_env () in
  let real = Tls.Config.real_env () in
  let rng = Crypto.Drbg.create ~seed:"bench" in
  (* A self-contained client/server pair at simulation parameters. *)
  let ca =
    Tls.Cert.self_signed ~curve:env.Tls.Config.pki_curve ~name:"Bench CA" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:1 rng
  in
  let key = Crypto.Ecdsa.gen_keypair env.Tls.Config.pki_curve rng in
  let cert =
    Tls.Cert.issue ca ~curve:env.Tls.Config.pki_curve ~subject:"bench.example" ~not_before:0
      ~not_after:(1 lsl 40) ~serial:2
      ~pub:(Crypto.Ec.point_bytes env.Tls.Config.pki_curve (Crypto.Ecdsa.public_key key))
      rng
  in
  let stek_manager =
    Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"bench" ~now:0
  in
  let make_server ~kex_policy suites =
    Tls.Server.create
      ~config:
        {
          Tls.Config.env;
          suites;
          issue_session_ids = true;
          session_cache = Some (Tls.Session_cache.create ~lifetime:86_400 ~capacity:100_000);
          tickets =
            Some
              {
                Tls.Config.stek_manager;
                lifetime_hint = 3600;
                accept_lifetime = 86_400;
                reissue_on_resumption = true;
              };
          kex_cache = Tls.Kex_cache.uniform ~policy:kex_policy;
          cert_chain = [ cert ];
          cert_key = key;
        }
      ~rng:(Crypto.Drbg.create ~seed:"bench-server")
  in
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = env;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Tls.Cert.store_of_list [ Tls.Cert.authority_cert ca ];
          check_certs = false;
          evaluate_trust = false;
          verify_ske = true;
        }
      ~rng:(Crypto.Drbg.create ~seed:"bench-client") ()
  in
  let connect server offer () =
    let o = Tls.Engine.connect client server ~now:1 ~hostname:"bench.example" ~offer in
    assert o.Tls.Engine.ok
  in
  let ecdhe_server =
    make_server ~kex_policy:Tls.Kex_cache.Fresh_always [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ]
  in
  let ecdhe_reuse_server =
    make_server ~kex_policy:Tls.Kex_cache.Reuse_forever [ Tls.Types.ECDHE_ECDSA_AES128_SHA256 ]
  in
  let dhe_server =
    make_server ~kex_policy:Tls.Kex_cache.Fresh_always [ Tls.Types.DHE_ECDSA_AES128_SHA256 ]
  in
  let static_server =
    make_server ~kex_policy:Tls.Kex_cache.Fresh_always [ Tls.Types.ECDH_ECDSA_AES128_SHA256 ]
  in
  let resume_offer server =
    let o =
      Tls.Engine.connect client server ~now:1 ~hostname:"bench.example" ~offer:Tls.Client.Fresh
    in
    match (o.Tls.Engine.new_ticket, o.Tls.Engine.session) with
    | Some (_, ticket), Some session ->
        (Tls.Client.Offer_ticket { ticket; session }, Tls.Client.Offer_session_id session)
    | _ -> failwith "bench: no resumption state"
  in
  let ticket_offer, id_offer = resume_offer ecdhe_server in
  (* Raw primitives. *)
  let stek = Tls.Stek_manager.issuing stek_manager ~now:0 in
  let session =
    Tls.Session.make ~id:(String.make 32 'i') ~master_secret:(String.make 48 'm')
      ~cipher_suite:Tls.Types.ECDHE_ECDSA_AES128_SHA256 ~established_at:0
  in
  let sealed = Tls.Ticket.seal stek rng session in
  let find_stek name = if String.equal name (Tls.Stek.key_name stek) then Some stek else None in
  let kb = String.make 1024 'x' in
  let aes = Crypto.Aes.of_key (String.make 16 'k') in
  let block = String.make 16 'b' in
  let p256_kp = Crypto.Ec.gen_keypair Crypto.Ec.p256 rng in
  let p256_pub =
    match Crypto.Ec.point_of_bytes Crypto.Ec.p256 (Crypto.Ec.public_bytes p256_kp) with
    | Ok p -> p
    | Error e -> failwith e
  in
  let oakley_kp = Crypto.Dh.gen_keypair Crypto.Dh.oakley2 rng in
  let oakley_pub = Crypto.Bignum.of_bytes_be (Crypto.Dh.public_bytes oakley_kp) in
  let x_kp = Crypto.X25519.gen_keypair rng in
  let tests =
    [
      (* The shortcuts' cost story: what a full handshake costs versus a
         resumption — the performance motivation the paper weighs against
         the forward-secrecy harm. *)
      Test.make ~name:"handshake/full-ecdhe-fresh"
        (Staged.stage (connect ecdhe_server Tls.Client.Fresh));
      Test.make ~name:"handshake/full-ecdhe-reused-value"
        (Staged.stage (connect ecdhe_reuse_server Tls.Client.Fresh));
      Test.make ~name:"handshake/full-dhe-fresh"
        (Staged.stage (connect dhe_server Tls.Client.Fresh));
      Test.make ~name:"handshake/full-static-ecdh"
        (Staged.stage (connect static_server Tls.Client.Fresh));
      Test.make ~name:"handshake/resume-session-id" (Staged.stage (connect ecdhe_server id_offer));
      Test.make ~name:"handshake/resume-ticket" (Staged.stage (connect ecdhe_server ticket_offer));
      (* Ticket machinery. *)
      Test.make ~name:"ticket/seal"
        (Staged.stage (fun () -> ignore (Tls.Ticket.seal stek rng session)));
      Test.make ~name:"ticket/unseal"
        (Staged.stage (fun () ->
             match Tls.Ticket.unseal ~find_stek sealed with Ok _ -> () | Error _ -> assert false));
      (* Asymmetric primitives, simulation- and production-sized. *)
      Test.make ~name:"kex/ecdhe-keygen-sim"
        (Staged.stage (fun () -> ignore (Crypto.Ec.gen_keypair env.Tls.Config.ecdhe_curve rng)));
      Test.make ~name:"kex/ecdhe-keygen-p256"
        (Staged.stage (fun () -> ignore (Crypto.Ec.gen_keypair Crypto.Ec.p256 rng)));
      Test.make ~name:"kex/ecdh-shared-p256"
        (Staged.stage (fun () ->
             match Crypto.Ec.shared_secret p256_kp ~peer_pub:p256_pub with
             | Ok _ -> ()
             | Error _ -> assert false));
      Test.make ~name:"kex/dhe-keygen-sim"
        (Staged.stage (fun () -> ignore (Crypto.Dh.gen_keypair env.Tls.Config.dh_group rng)));
      Test.make ~name:"kex/dhe-keygen-oakley1024"
        (Staged.stage (fun () -> ignore (Crypto.Dh.gen_keypair real.Tls.Config.dh_group rng)));
      Test.make ~name:"kex/dhe-shared-oakley1024"
        (Staged.stage (fun () ->
             match Crypto.Dh.shared_secret oakley_kp ~peer_pub:oakley_pub with
             | Ok _ -> ()
             | Error _ -> assert false));
      Test.make ~name:"kex/x25519-shared"
        (Staged.stage (fun () ->
             match Crypto.X25519.shared_secret x_kp ~peer_pub:(Crypto.X25519.public_bytes x_kp) with
             | Ok _ -> ()
             | Error _ -> ()));
      (* Symmetric floor. *)
      Test.make ~name:"sym/sha256-1KiB" (Staged.stage (fun () -> ignore (Crypto.Sha256.digest kb)));
      Test.make ~name:"sym/aes128-block"
        (Staged.stage (fun () -> ignore (Crypto.Aes.encrypt_block aes block)));
      Test.make ~name:"sym/hmac-sha256-1KiB"
        (Staged.stage (fun () -> ignore (Crypto.Hmac.sha256 ~key:"k" kb)));
    ]
  in
  let grouped = Test.make_grouped ~name:"tlsharm" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some (t :: _) -> t | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  let pretty ns =
    if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
    else if ns < 1_000_000.0 then Printf.sprintf "%.1f us" (ns /. 1e3)
    else Printf.sprintf "%.2f ms" (ns /. 1e6)
  in
  Analysis.Report.section "Microbenchmarks (bechamel, monotonic clock)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Operation"; "Time/run"; "r^2" ]
      ~rows:(List.map (fun (n, ns, r2) -> [ n; pretty ns; Printf.sprintf "%.3f" r2 ]) rows)
  ^ "\n\nThe gap between full handshakes and resumptions is the performance incentive behind\n\
     the paper's crypto shortcuts; production-sized DHE (Oakley 1024) shows why servers\n\
     cached ephemeral values.\n"
  ^ "\n" ^ kernel_report ()

(* --- 1-worker vs N-worker campaign ---------------------------------------------------- *)

(* The campaign runner at 1 and N workers, plus the determinism check
   the sharded design promises: a 1-worker and an N-worker run of the
   same world produce identical series. Each run gets a fresh world
   (campaigns mutate server state), sized by TLSHARM_DOMAINS/TLSHARM_DAYS
   with smaller defaults than the full study so "bench all" stays quick.

   Run order is an untimed warm-up campaign, then 1 worker, then N
   workers: the first run pays the allocator/page-fault warm-up, and it
   must not be a timed one — the seed-era ordering timed the parallel
   run on a cold process and biased the ratio against it.

   Two speedups are reported and they answer different questions:

   - [parallel_speedup] (the gated one) is *scheduled* speedup: per-shard
     wall times are measured on the 1-worker run (campaign.shard spans,
     where shards execute sequentially and do not contend), then the
     exact heaviest-first atomic-queue schedule is simulated over [jobs]
     workers; the speedup is total shard work over that makespan. This
     measures what the sharder and scheduler control — balance and
     granularity — and is what regresses if packing degrades.
   - [wall_speedup] is raw end-to-end wall ratio (1 worker / N workers).
     On a host with fewer free cores than [jobs] it measures the host,
     not the scheduler (N OCaml domains time-slicing one core run
     *slower* than one domain), so it is reported but not gated. *)
let parallel_campaign_bench () =
  let n_domains = env_int "TLSHARM_DOMAINS" 2000 in
  let days = env_int "TLSHARM_DAYS" 7 in
  let fresh () =
    Simnet.World.create
      ~config:
        {
          Simnet.World.default_config with
          Simnet.World.n_domains;
          seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
        }
      ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs =
    let j = env_int "TLSHARM_JOBS" 0 in
    if j >= 2 then j else max 2 (Scanner.Pool.default_jobs ())
  in
  let world = fresh () in
  let n_shards = Array.length (Scanner.Parallel_campaign.shards world) in
  ignore (Scanner.Parallel_campaign.run ~jobs:1 world ~days ());
  let obs = Obs.Recorder.create ~wall:true () in
  let one, t_one =
    time (fun () -> Scanner.Parallel_campaign.run ~jobs:1 ~obs (fresh ()) ~days ())
  in
  let par, t_par = time (fun () -> Scanner.Parallel_campaign.run ~jobs (fresh ()) ~days ()) in
  let deterministic = par.Scanner.Daily_scan.series = one.Scanner.Daily_scan.series in
  (* Per-shard wall times, in shard-id (= queue) order, from the
     1-worker run's campaign.shard spans. *)
  let walls =
    Obs.Trace.stats (Obs.Recorder.trace obs)
    |> List.filter_map (fun (st : Obs.Trace.span_stat) ->
           if String.equal st.Obs.Trace.span_name "campaign.shard" then
             Option.bind (List.assoc_opt "shard" st.Obs.Trace.span_attrs) (fun id ->
                 Option.map
                   (fun id -> (id, st.Obs.Trace.span_wall_ns /. 1e9))
                   (int_of_string_opt id))
           else None)
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let shard_work = Array.fold_left ( +. ) 0.0 walls in
  let wall_max = Array.fold_left max 0.0 walls in
  let wall_mean = if Array.length walls = 0 then 0.0 else shard_work /. float_of_int (Array.length walls) in
  (* Replay the run-queue schedule: workers claim the next unstarted
     shard (ids are heaviest-first) as they go idle. *)
  let makespan jobs =
    let jobs = max 1 (min jobs (Array.length walls)) in
    let finish = Array.make jobs 0.0 in
    Array.iter
      (fun w ->
        let best = ref 0 in
        for i = 1 to jobs - 1 do
          if finish.(i) < finish.(!best) then best := i
        done;
        finish.(!best) <- finish.(!best) +. w)
      walls;
    Array.fold_left max 0.0 finish
  in
  let scheduled_speedup =
    if Array.length walls = 0 then 1.0 else shard_work /. makespan jobs
  in
  let utilization = scheduled_speedup /. float_of_int (min jobs (max 1 n_shards)) in
  update_bench_json "campaign"
    (Json_io.Obj
       [
         ("n_domains", Json_io.Num (float_of_int n_domains));
         ("days", Json_io.Num (float_of_int days));
         ("jobs", Json_io.Num (float_of_int jobs));
         ("n_shards", Json_io.Num (float_of_int n_shards));
         ("one_worker_s", Json_io.Num t_one);
         ("parallel_s", Json_io.Num t_par);
         ("shard_wall_max_s", Json_io.Num wall_max);
         ("shard_wall_mean_s", Json_io.Num wall_mean);
         ("shard_balance", Json_io.Num (if wall_mean > 0.0 then wall_max /. wall_mean else 1.0));
         ("parallel_speedup", Json_io.Num scheduled_speedup);
         ("parallel_utilization", Json_io.Num utilization);
         ("wall_speedup", Json_io.Num (t_one /. t_par));
         ("deterministic", Json_io.Bool deterministic);
       ]);
  Analysis.Report.section "Campaign runners (wall-clock)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Runner"; "Wall-clock"; "Notes" ]
      ~rows:
        [
          [ "Parallel_campaign.run ~jobs:1"; Printf.sprintf "%.2f s" t_one; "" ];
          [
            Printf.sprintf "Parallel_campaign.run ~jobs:%d" jobs;
            Printf.sprintf "%.2f s" t_par;
            Printf.sprintf "%.2fx wall vs 1 worker" (t_one /. t_par);
          ];
        ]
  ^ Printf.sprintf
      "\n\n%d domains, %d days, %d shards, %d core(s) available; %d-worker series %s 1-worker \
       series (%d domains scanned either way).\n\
       Shard walls (1-worker run): max %.3f s, mean %.3f s, balance %.2fx.\n\
       Scheduled speedup at %d jobs: %.2fx (%.0f%% utilization) — heaviest-first queue \
       simulated over measured shard walls; see README for why the wall ratio is not the \
       gated number on shared hosts.\n"
      n_domains days n_shards
      (Scanner.Pool.default_jobs ())
      jobs
      (if deterministic then "identical to" else "DIFFER FROM (BUG)")
      (Array.length one.Scanner.Daily_scan.series)
      wall_max wall_mean
      (if wall_mean > 0.0 then wall_max /. wall_mean else 1.0)
      jobs scheduled_speedup (100.0 *. utilization)

(* --- Traffic population runner ------------------------------------------------------- *)

(* The client-side runner under the same two lenses as the campaign
   bench: throughput (user-days simulated per second, the number that
   says whether 10^6 users x 63 days is tractable) and scheduled
   speedup over the measured per-shard walls (what the user sharder
   controls). Determinism is checked the same way: a 1-worker and an
   N-worker run must produce identical rows. *)
let traffic_bench () =
  let users = env_int "TLSHARM_TRAFFIC_USERS" 1024 in
  let shard_users = env_int "TLSHARM_TRAFFIC_SHARD" 128 in
  let days = env_int "TLSHARM_TRAFFIC_DAYS" 3 in
  let cfg =
    {
      Traffic.Population.default_config with
      Traffic.Population.users;
      days;
      shard_users;
      pages_per_day = 1.0;
      world =
        {
          Simnet.World.default_config with
          Simnet.World.n_domains = 1500;
          seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
        };
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs =
    let j = env_int "TLSHARM_JOBS" 0 in
    if j >= 2 then j else max 2 (Scanner.Pool.default_jobs ())
  in
  let n_shards = Array.length (Traffic.Population.shards cfg) in
  let obs = Obs.Recorder.create ~wall:true () in
  let one, t_one = time (fun () -> Traffic.Population.run ~jobs:1 ~obs cfg) in
  let par, t_par = time (fun () -> Traffic.Population.run ~jobs cfg) in
  let deterministic = one.Traffic.Population.rows = par.Traffic.Population.rows in
  let walls =
    Obs.Trace.stats (Obs.Recorder.trace obs)
    |> List.filter_map (fun (st : Obs.Trace.span_stat) ->
           if String.equal st.Obs.Trace.span_name "traffic.shard" then
             Option.bind (List.assoc_opt "shard" st.Obs.Trace.span_attrs) (fun id ->
                 Option.map
                   (fun id -> (id, st.Obs.Trace.span_wall_ns /. 1e9))
                   (int_of_string_opt id))
           else None)
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let shard_work = Array.fold_left ( +. ) 0.0 walls in
  let makespan jobs =
    let jobs = max 1 (min jobs (Array.length walls)) in
    let finish = Array.make jobs 0.0 in
    Array.iter
      (fun w ->
        let best = ref 0 in
        for i = 1 to jobs - 1 do
          if finish.(i) < finish.(!best) then best := i
        done;
        finish.(!best) <- finish.(!best) +. w)
      walls;
    Array.fold_left max 0.0 finish
  in
  let scheduled_speedup =
    if Array.length walls = 0 then 1.0 else shard_work /. makespan jobs
  in
  let user_days_per_sec = float_of_int (users * days) /. t_one in
  update_bench_json "traffic"
    (Json_io.Obj
       [
         ("users", Json_io.Num (float_of_int users));
         ("days", Json_io.Num (float_of_int days));
         ("shard_users", Json_io.Num (float_of_int shard_users));
         ("n_shards", Json_io.Num (float_of_int n_shards));
         ("jobs", Json_io.Num (float_of_int jobs));
         ("connections", Json_io.Num (float_of_int one.Traffic.Population.total_rows));
         ("one_worker_s", Json_io.Num t_one);
         ("parallel_s", Json_io.Num t_par);
         ("user_days_per_sec", Json_io.Num user_days_per_sec);
         ("parallel_speedup", Json_io.Num scheduled_speedup);
         ("wall_speedup", Json_io.Num (t_one /. t_par));
         ("deterministic", Json_io.Bool deterministic);
       ]);
  Analysis.Report.section "Traffic population runner (wall-clock)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Runner"; "Wall-clock"; "Notes" ]
      ~rows:
        [
          [ "Population.run ~jobs:1"; Printf.sprintf "%.2f s" t_one; "" ];
          [
            Printf.sprintf "Population.run ~jobs:%d" jobs;
            Printf.sprintf "%.2f s" t_par;
            Printf.sprintf "%.2fx wall vs 1 worker" (t_one /. t_par);
          ];
        ]
  ^ Printf.sprintf
      "\n\n%d users x %d days over %d shards (%d connections); %d-worker rows %s 1-worker \
       rows.\n\
       Throughput: %.0f user-days/s single-worker. Scheduled speedup at %d jobs: %.2fx over \
       measured shard walls.\n"
      users days n_shards one.Traffic.Population.total_rows jobs
      (if deterministic then "identical to" else "DIFFER FROM (BUG)")
      user_days_per_sec jobs scheduled_speedup

(* --- Per-phase telemetry breakdown --------------------------------------------------- *)

(* The observability layer over a mini-campaign with host-clock span
   timing enabled: where a campaign's wall-clock actually goes, phase by
   phase, plus the crypto-kernel call counts behind it. Emits a "phases"
   section into BENCH_crypto.json so perf PRs can diff per-phase cost,
   not just end-to-end seconds. *)
let rec json_io_of_obs (j : Obs.Json.t) : Json_io.t =
  match j with
  | Obs.Json.Null -> Json_io.Null
  | Obs.Json.Bool b -> Json_io.Bool b
  | Obs.Json.Num n -> Json_io.Num n
  | Obs.Json.Str s -> Json_io.Str s
  | Obs.Json.List l -> Json_io.List (List.map json_io_of_obs l)
  | Obs.Json.Obj kvs -> Json_io.Obj (List.map (fun (k, v) -> (k, json_io_of_obs v)) kvs)

let phases_bench () =
  let n_domains = env_int "TLSHARM_DOMAINS" 2000 in
  let days = env_int "TLSHARM_DAYS" 7 in
  let world =
    Simnet.World.create
      ~config:
        {
          Simnet.World.default_config with
          Simnet.World.n_domains;
          seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
        }
      ()
  in
  let obs = Obs.Recorder.create ~wall:true () in
  let kernel_before = Obs.Kernel.snapshot () in
  let t0 = Unix.gettimeofday () in
  let scan = Scanner.Parallel_campaign.run ~jobs:1 ~obs world ~days () in
  let wall_s = Unix.gettimeofday () -. t0 in
  Obs.Kernel.add_to_metrics (Obs.Recorder.metrics obs)
    (Obs.Kernel.diff ~before:kernel_before ~after:(Obs.Kernel.snapshot ()));
  update_bench_json "phases"
    (Json_io.Obj
       [
         ("n_domains", Json_io.Num (float_of_int n_domains));
         ("days", Json_io.Num (float_of_int days));
         ("wall_s", Json_io.Num wall_s);
         ("metrics", json_io_of_obs (Obs.Metrics.to_json (Obs.Recorder.metrics obs)));
         ("trace", json_io_of_obs (Obs.Trace.to_json (Obs.Recorder.trace obs)));
       ]);
  let m = Obs.Recorder.metrics obs in
  let counter name = Obs.Metrics.counter_value m name in
  Analysis.Report.section "Campaign phase breakdown (telemetry, wall clock on)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Metric"; "Count" ]
      ~rows:
        (List.map
           (fun name -> [ name; string_of_int (counter name) ])
           [
             "probe.connects";
             "probe.attempts";
             "probe.successes";
             "probe.failures";
             "probe.tickets.issued";
             "probe.kex.dhe";
             "probe.kex.ecdhe";
             "kernel.pow_mod";
             "kernel.pow_mod_fixed";
             "kernel.ec_scalar_mult";
             "kernel.ec_scalar_mult_base";
             "kernel.x25519_mult";
           ])
  ^ Printf.sprintf
      "\n\n%d domains, %d days, %d series rows; campaign wall-clock %.2f s. Full per-span wall \
       timings are in the \"phases\" section of %s.\n"
      n_domains days
      (Array.length scan.Scanner.Daily_scan.series)
      wall_s (bench_json_path ())

(* --- Fault-injection funnel ---------------------------------------------------------- *)

(* A fault-enabled mini-campaign under the default profile: the same
   world scanned clean and faulty, reporting the measurement-loss funnel
   and the wall-clock overhead of the retry machinery. The fault layer
   promises that observations which succeed under injection are
   byte-identical to the clean run's; this entry checks that promise on
   every scan day. *)
let faults_bench () =
  let n_domains = env_int "TLSHARM_DOMAINS" 2000 in
  let days = env_int "TLSHARM_DAYS" 7 in
  let fresh () =
    Simnet.World.create
      ~config:
        {
          Simnet.World.default_config with
          Simnet.World.n_domains;
          seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
        }
      ()
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let campaign ?injector ?funnel world =
    Scanner.Parallel_campaign.run ~jobs:1 ?injector ~retry:Faults.Retry.default ?funnel world
      ~days ()
  in
  (* Untimed warm-up: whichever campaign runs first pays the process's
     cold caches and heap growth. That, and timing the clean run's world
     construction with it, once made the byzantine run look cheaper than
     the clean one. Every timer below covers the campaign alone. *)
  ignore (campaign (fresh ()));
  let clean_world = fresh () in
  let clean, t_clean = time (fun () -> campaign clean_world) in
  let world = fresh () in
  let injector = Faults.Injector.create ~profile:Faults.Profile.default world in
  let funnel = Faults.Funnel.create () in
  let faulty, t_faulty = time (fun () -> campaign ~injector ~funnel world) in
  (* Key day records by (domain, day): any day where both sweeps got
     through the fault layer must match the clean run field-for-field. *)
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
  let mismatches = ref 0 and checked = ref 0 in
  Hashtbl.iter
    (fun key (r : Scanner.Daily_scan.day_record) ->
      if r.Scanner.Daily_scan.default_ok && r.Scanner.Daily_scan.dhe_ok then
        match Hashtbl.find_opt clean_ix key with
        | Some c ->
            incr checked;
            if r <> c then incr mismatches
        | None -> ())
    (index faulty);
  let totals = Faults.Funnel.totals funnel in
  (* The byzantine profile is the expensive one: every injected fault
     synthesizes and decodes hostile bytes through the real codecs, so
     its probe throughput against the clean run is the honest price of
     adversarial robustness — measured here, gated in check-baseline. *)
  let byz_world = fresh () in
  let byz_injector = Faults.Injector.create ~profile:Faults.Profile.byzantine byz_world in
  let byz_funnel = Faults.Funnel.create () in
  let byzantine, t_byz =
    time (fun () -> campaign ~injector:byz_injector ~funnel:byz_funnel byz_world)
  in
  let byz_checked = ref 0 and byz_mismatches = ref 0 in
  Hashtbl.iter
    (fun key (r : Scanner.Daily_scan.day_record) ->
      if r.Scanner.Daily_scan.default_ok && r.Scanner.Daily_scan.dhe_ok then
        match Hashtbl.find_opt clean_ix key with
        | Some c ->
            incr byz_checked;
            if r <> c then incr byz_mismatches
        | None -> ())
    (index byzantine);
  let byz_totals = Faults.Funnel.totals byz_funnel in
  let byz_lost_byzantine =
    List.fold_left
      (fun acc (f, n) -> if Faults.Fault.is_byzantine f then acc + n else acc)
      0 byz_totals.Faults.Funnel.t_losses
  in
  let probes = float_of_int byz_totals.Faults.Funnel.t_probes in
  update_bench_json "faults"
    (Json_io.Obj
       [
         ("n_domains", Json_io.Num (float_of_int n_domains));
         ("days", Json_io.Num (float_of_int days));
         ("probes", Json_io.Num probes);
         ("clean_s", Json_io.Num t_clean);
         ("byzantine_s", Json_io.Num t_byz);
         ("clean_probes_per_sec", Json_io.Num (probes /. t_clean));
         ("byzantine_probes_per_sec", Json_io.Num (probes /. t_byz));
         ("byzantine_overhead", Json_io.Num (t_byz /. t_clean));
         ("byzantine_losses", Json_io.Num (float_of_int byz_lost_byzantine));
         ("deterministic", Json_io.Bool (!byz_mismatches = 0 && !mismatches = 0));
       ]);
  Analysis.Funnel_report.render
    ~title:
      (Printf.sprintf "Fault-injection funnel (profile: default, %d domains, %d days)" n_domains
         days)
    funnel
  ^ Printf.sprintf
      "
clean campaign %.2f s, faulty campaign %.2f s (%.2fx); %d surviving observations compared against the clean run, %d mismatch%s%s.
"
      t_clean t_faulty
      (t_faulty /. t_clean)
      !checked !mismatches
      (if !mismatches = 1 then "" else "es")
      (if !mismatches = 0 then "" else " (BUG: fault layer perturbed surviving probes)")
  ^ Printf.sprintf "lost %d of %d probes to injected faults.
"
      (Faults.Funnel.lost totals) totals.Faults.Funnel.t_probes
  ^ Analysis.Funnel_report.render
      ~title:
        (Printf.sprintf "Byzantine funnel (profile: byzantine, %d domains, %d days)" n_domains
           days)
      byz_funnel
  ^ Printf.sprintf
      "
byzantine campaign %.2f s (%.2fx of clean, %.0f probes/s vs %.0f clean); %d surviving observations, %d mismatch%s%s.
%d probes lost to byzantine causes (malformed + protocol violations).
"
      t_byz (t_byz /. t_clean) (probes /. t_byz) (probes /. t_clean) !byz_checked
      !byz_mismatches
      (if !byz_mismatches = 1 then "" else "es")
      (if !byz_mismatches = 0 then "" else " (BUG: byzantine injection perturbed surviving probes)")
      byz_lost_byzantine

(* --- Cross-vantage bench --------------------------------------------------------

   The cross-regional scan: the same domain-days probed from N vantage
   regions, once serially and once with one worker per region. Region
   scans are independent by construction, so the parallel rows must be
   byte-identical to the serial ones — that invariance is what
   check-baseline gates. *)
let regions_bench () =
  let n_domains = env_int "TLSHARM_DOMAINS" 1500 in
  let days = env_int "TLSHARM_DAYS" 1 in
  let n_regions = env_int "TLSHARM_REGIONS" 2 in
  let cfg =
    {
      Scanner.Cross_vantage.base =
        {
          Simnet.World.default_config with
          Simnet.World.n_domains;
          seed = Option.value (Sys.getenv_opt "TLSHARM_SEED") ~default:"tlsharm";
        };
      regions = Simnet.Region.take n_regions;
      days;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let one, t_one = time (fun () -> Scanner.Cross_vantage.run ~jobs:1 cfg) in
  let par, t_par = time (fun () -> Scanner.Cross_vantage.run ~jobs:n_regions cfg) in
  let rows_one = Scanner.Cross_vantage.rows one in
  let deterministic = rows_one = Scanner.Cross_vantage.rows par in
  let n_rows = List.length rows_one in
  update_bench_json "regions"
    (Json_io.Obj
       [
         ("n_domains", Json_io.Num (float_of_int n_domains));
         ("days", Json_io.Num (float_of_int days));
         ("n_regions", Json_io.Num (float_of_int n_regions));
         ("rows", Json_io.Num (float_of_int n_rows));
         ("one_worker_s", Json_io.Num t_one);
         ("parallel_s", Json_io.Num t_par);
         ("rows_per_sec", Json_io.Num (float_of_int n_rows /. t_one));
         ("wall_speedup", Json_io.Num (t_one /. t_par));
         ("deterministic", Json_io.Bool deterministic);
       ]);
  Analysis.Report.section "Cross-vantage scan (wall-clock)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Runner"; "Wall-clock"; "Notes" ]
      ~rows:
        [
          [
            "Cross_vantage.run ~jobs:1";
            Printf.sprintf "%.2f s" t_one;
            Printf.sprintf "%d regions, %d rows" n_regions n_rows;
          ];
          [
            Printf.sprintf "Cross_vantage.run ~jobs:%d" n_regions;
            Printf.sprintf "%.2f s" t_par;
            Printf.sprintf "%.2fx wall vs 1 worker" (t_one /. t_par);
          ];
        ]
  ^ Printf.sprintf "\n\njobs-invariant: %b\n" deterministic

(* --- Driver ------------------------------------------------------------------------- *)

let ablations () = Tlsharm.Mitigations.report (Lazy.force study)
let tls13 () = Tlsharm.Tls13_projection.report (Lazy.force study)

let named : (string * (unit -> string)) list =
  List.map (fun (name, f) -> (name, fun () -> f (Lazy.force study))) Tlsharm.Experiments.by_name
  @ [
      ("google", google_analysis);
      ("ablations", ablations);
      ("tls13", tls13);
      ("micro", microbenches);
      ("parallel", parallel_campaign_bench);
      ("traffic", traffic_bench);
      ("phases", phases_bench);
      ("faults", faults_bench);
      ("regions", regions_bench);
      ("check-baseline", check_baseline);
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  let selected =
    match args with [] | [ "all" ] -> List.map fst named | ids -> ids
  in
  List.iter
    (fun id ->
      match List.assoc_opt id named with
      | Some f -> print_endline (f ())
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat " " (List.map fst named));
          exit 1)
    selected;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
