(* The crypto-kernel bench: a bechamel table of what full handshakes,
   resumptions, the ticket machinery and the raw primitives cost — the
   performance incentive the paper weighs against the shortcuts'
   forward-secrecy harm — and the optimized kernels timed against their
   retained seed-era references, gated against a committed baseline.
   End-to-end campaign and traffic timing lives in perfbench/, and every
   table and figure of the evaluation runs through `tlsharm experiment`.

   Usage:
     bench/main.exe                 both entries, in order
     bench/main.exe micro           both tables; writes BENCH_crypto.json
     bench/main.exe check-baseline  compare BENCH_crypto.json to BENCH_baseline.json

   `check-baseline` exits nonzero if a kernel's speedup over its
   seed-era reference, measured in the same run, falls below the larger
   of its fixed floor and half the baseline's recorded speedup, or if an
   operation's minor words per run exceed the baseline's budget by more
   than 2% — the CI bench smoke step. See README.md for the file
   format.

   Environment:
     TLSHARM_BENCH_MS   per-kernel timing budget in ms, at least 1
                        (default 200; CI uses a reduced budget)
     TLSHARM_BENCH_OUT  the file `micro` writes and `check-baseline`
                        reads (default BENCH_crypto.json) *)

let bench_ms () =
  let name = "TLSHARM_BENCH_MS" in
  match Sys.getenv_opt name with
  | None -> 200
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | Some _ ->
          Printf.eprintf "bench: %s=%S must be >= 1\n" name v;
          exit 2
      | None ->
          Printf.eprintf "bench: %s=%S is not an integer\n" name v;
          exit 2)

let bench_json_path () =
  Option.value (Sys.getenv_opt "TLSHARM_BENCH_OUT") ~default:"BENCH_crypto.json"

let pretty_ns ns =
  if ns < 1_000.0 then Printf.sprintf "%.0f ns" ns
  else if ns < 1_000_000.0 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.2f ms" (ns /. 1e6)

(* --- Crypto-kernel benchmarks -------------------------------------------------- *)

(* Hand-rolled timing for the kernel comparison: bechamel's OLS machinery
   is great for the handshake table, but here we need a denominator — the
   retained seed-era kernels — measured under the same loop, and a knob
   (TLSHARM_BENCH_MS) small enough for a CI smoke run. Chunked so the
   clock is read O(log n) times, not per call. *)
let ns_per_op ~budget_ms f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let budget = float_of_int budget_ms /. 1000.0 in
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
   Inputs are Rng-derived so runs are reproducible, and each pair is
   checked for agreement before timing — a bench that measures a wrong
   kernel fast is worse than no bench. *)
let kernel_benches () =
  let module B = Crypto.Bignum in
  let module Ec = Crypto.Ec in
  let rng = Crypto.Rng.create ~seed:"bench-kernels" in
  let ctx2048 = B.mont_of_modulus modp2048 in
  let base2048 = Crypto.Rng.bignum_below rng modp2048 in
  let e256 = B.of_bytes_be (Crypto.Rng.generate rng 32) in
  let fb2048 = B.fixed_base ctx2048 B.two ~max_bits:256 in
  let sim_group = Crypto.Dh.generate ~bits:64 ~seed:"bench" in
  let sim_p = Crypto.Dh.group_p sim_group in
  let sim_ctx = B.mont_of_modulus sim_p in
  let sim_base = Crypto.Rng.bignum_below rng sim_p in
  let sim_e = B.of_bytes_be (Crypto.Rng.generate rng 8) in
  let sim_curve = Ec.generate_small ~bits:61 ~seed:"bench" in
  let k_sim = Crypto.Rng.bignum_below rng (Ec.curve_order sim_curve) in
  let q_sim = Ec.Reference.scalar_mult_base sim_curve (B.of_int 7919) in
  (* 2^31 - 1: the largest modulus the native-word pow_mod fast path
     accepts; exercises the skip-Montgomery-entirely branch. *)
  let m31 = B.of_int 0x7fffffff in
  let ctx31 = B.mont_of_modulus m31 in
  let base31 = Crypto.Rng.bignum_below rng m31 in
  let e31 = B.of_bytes_be (Crypto.Rng.generate rng 8) in
  (* The one-word backend of the simulation curves against the generic
     Montgomery field on the same 61-bit prime. *)
  let sim_p = Ec.curve_p sim_curve in
  let wf = Crypto.Word_field.create sim_p in
  let fsim = B.Field.create sim_p in
  let sa = Crypto.Rng.bignum_below rng sim_p and sb = Crypto.Rng.bignum_below rng sim_p in
  let wa = Crypto.Word_field.of_bignum wf sa and wb = Crypto.Word_field.of_bignum wf sb in
  let ga_sim = B.Field.of_bignum fsim sa and gb_sim = B.Field.of_bignum fsim sb in
  let bn name f g = (name, (fun () -> ignore (Sys.opaque_identity (f ()))), (fun () -> ignore (Sys.opaque_identity (g ()))), B.equal (f ()) (g ())) in
  let pt name f g = (name, (fun () -> ignore (Sys.opaque_identity (f ()))), (fun () -> ignore (Sys.opaque_identity (g ()))), f () = g ()) in
  let word_field_mul =
    ( "field_mul-sim61",
      (fun () -> ignore (Sys.opaque_identity (Crypto.Word_field.mul wf wa wb))),
      (fun () -> ignore (Sys.opaque_identity (B.Field.mul fsim ga_sim gb_sim))),
      B.equal
        (Crypto.Word_field.to_bignum wf (Crypto.Word_field.mul wf wa wb))
        (B.Field.to_bignum fsim (B.Field.mul fsim ga_sim gb_sim)) )
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
    word_field_mul;
    pt "scalar_mult_base-sim61"
      (fun () -> Ec.scalar_mult_base sim_curve k_sim)
      (fun () -> Ec.Reference.scalar_mult_base sim_curve k_sim);
    pt "scalar_mult-sim61"
      (fun () -> Ec.scalar_mult sim_curve k_sim q_sim)
      (fun () -> Ec.Reference.scalar_mult sim_curve k_sim q_sim);
  ]

(* --- Allocation budgets ------------------------------------------------------------ *)

(* Minor words per run of [f], over [alloc_runs] runs after one warm-up.
   A count, not a timing: from the same state it is the same on every
   host and every run, so check-baseline can hold it to a tight
   margin. *)
let alloc_runs = 20

let minor_words_per_op f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to alloc_runs do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int alloc_runs

(* How far over its baseline budget an operation may allocate. *)
let alloc_margin = 1.02

let kernel_report ~budget_ms ~allocs =
  let measured =
    List.map
      (fun (name, opt, reference, agree) ->
        if not agree then failwith (Printf.sprintf "bench: kernel %s disagrees with reference" name);
        let ns_new = ns_per_op ~budget_ms opt in
        let ns_ref = ns_per_op ~budget_ms reference in
        (name, ns_new, ns_ref))
      (kernel_benches ())
  in
  let json =
    Obs.Json.List
      (List.map
         (fun (name, ns_new, ns_ref) ->
           Obs.Json.Obj
             [
               ("name", Obs.Json.Str name);
               ("ns_per_op", Obs.Json.Num ns_new);
               ("ops_per_sec", Obs.Json.Num (1e9 /. ns_new));
               ("seed_ns_per_op", Obs.Json.Num ns_ref);
               ("speedup_vs_seed", Obs.Json.Num (ns_ref /. ns_new));
             ])
         measured)
  in
  let alloc_json =
    Obs.Json.List
      (List.map
         (fun (name, words) ->
           Obs.Json.Obj [ ("name", Obs.Json.Str name); ("minor_words_per_op", Obs.Json.Num words) ])
         allocs)
  in
  Durable.Atomic_io.write (bench_json_path ())
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("schema", Obs.Json.Str "tlsharm-bench/1"); ("kernels", json); ("alloc", alloc_json) ]));
  Analysis.Report.section "Crypto kernels: optimized vs seed-era reference"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Kernel"; "Optimized"; "Seed-era"; "Speedup" ]
      ~rows:
        (List.map
           (fun (name, ns_new, ns_ref) ->
             [ name; pretty_ns ns_new; pretty_ns ns_ref; Printf.sprintf "%.2fx" (ns_ref /. ns_new) ])
           measured)
  ^ Printf.sprintf "\n\nKernel results written to %s.\n" (bench_json_path ())

(* --- Baseline regression check -------------------------------------------------- *)

(* Fixed speedup-vs-seed floors: pow_mod-sim64 must never fall back
   below parity, and both simulation-curve ladders (the one-word field
   under the fixed-base comb and the wNAF ladder) must hold a >= 6x
   win. *)
let fixed_floors =
  [ ("pow_mod-sim64", 1.0); ("scalar_mult_base-sim61", 6.0); ("scalar_mult-sim61", 6.0) ]

(* CI smoke: BENCH_crypto.json must exist, parse, and carry a well-formed
   kernel list; every kernel present in the committed baseline must still
   be measured. Each kernel is gated on its speedup over the seed-era
   reference measured in the same run, which a slower or busier host
   moves on both sides alike: the floor is the larger of its fixed floor
   and half the baseline's recorded speedup — "half the baseline ops/s"
   on the baseline's own host. Raw ops/s against the baseline is printed
   but not gated: it measures the host as much as the code. Any
   unreadable input is one "check-baseline: PATH: ..." line and exit 1. *)
let check_baseline () =
  let fail msg =
    prerr_endline ("check-baseline: " ^ msg);
    exit 1
  in
  let load path =
    match Durable.Atomic_io.read path with
    | Error (Durable.Atomic_io.Io e) -> fail e
    | Error e -> fail (Durable.Atomic_io.error_to_string ~what:path e)
    | Ok contents -> (
        match Obs.Json.of_string contents with Ok v -> v | Error e -> fail (path ^ ": " ^ e))
  in
  (* One section of a results file, a list of entries: [required] ones
     must be there and non-empty, others may be absent. [entry] reads one
     entry, [None] when it is malformed. *)
  let section ~required ~what name entry path v =
    let entries =
      match Option.map Obs.Json.to_list (Obs.Json.member name v) with
      | Some (Some l) when l <> [] || not required -> l
      | None when not required -> []
      | Some None when not required -> fail (Printf.sprintf "%s: malformed %S section" path name)
      | _ -> fail (Printf.sprintf "%s: no %S section" path name)
    in
    List.map
      (fun k ->
        match entry k with
        | Some e -> e
        | None -> fail (Printf.sprintf "%s: malformed %s entry" path what))
      entries
  in
  let kernels =
    section ~required:true ~what:"kernel" "kernels" (fun k ->
        let num field = Option.bind (Obs.Json.member field k) Obs.Json.to_float in
        match
          (Option.bind (Obs.Json.member "name" k) Obs.Json.to_str, num "ops_per_sec", num "speedup_vs_seed")
        with
        | Some name, Some ops, Some speedup when ops > 0.0 && speedup > 0.0 -> Some (name, (ops, speedup))
        | _ -> None)
  in
  (* Optional: a results file without an "alloc" section has no budgets. *)
  let allocs =
    section ~required:false ~what:"alloc" "alloc" (fun k ->
        match
          ( Option.bind (Obs.Json.member "name" k) Obs.Json.to_str,
            Option.bind (Obs.Json.member "minor_words_per_op" k) Obs.Json.to_float )
        with
        | Some name, Some words when words >= 0.0 -> Some (name, words)
        | _ -> None)
  in
  let current_path = bench_json_path () and baseline_path = "BENCH_baseline.json" in
  let current_v = load current_path in
  let current = kernels current_path current_v in
  let baseline_v = load baseline_path in
  let baseline = kernels baseline_path baseline_v in
  let current_allocs = allocs current_path current_v in
  let alloc_rows =
    List.map
      (fun (name, budget) ->
        let words =
          match List.assoc_opt name current_allocs with
          | Some w -> w
          | None -> fail (Printf.sprintf "allocation budget %S in baseline but not measured" name)
        in
        if words > budget *. alloc_margin then
          fail
            (Printf.sprintf "%S allocates %.1f minor words per run, over its budget %.1f (+%.0f%%)"
               name words budget
               ((alloc_margin -. 1.0) *. 100.0));
        [ name; Printf.sprintf "%.1f" budget; Printf.sprintf "%.1f" words ])
      (allocs baseline_path baseline_v)
  in
  let measured name =
    match List.assoc_opt name current with
    | Some m -> m
    | None -> fail (Printf.sprintf "kernel %S in baseline but not measured" name)
  in
  let ops_rows =
    List.map
      (fun (name, (base_ops, _)) ->
        let ops, _ = measured name in
        [
          name;
          Printf.sprintf "%.0f" base_ops;
          Printf.sprintf "%.0f" ops;
          Printf.sprintf "%.2fx" (ops /. base_ops);
        ])
      baseline
  in
  let gated =
    List.map fst baseline
    @ List.filter (fun name -> not (List.mem_assoc name baseline)) (List.map fst fixed_floors)
  in
  let speedup_rows =
    List.map
      (fun name ->
        let base_speedup = Option.map snd (List.assoc_opt name baseline) in
        let floor =
          Float.max
            (Option.value (List.assoc_opt name fixed_floors) ~default:0.0)
            (0.5 *. Option.value base_speedup ~default:0.0)
        in
        let _, speedup = measured name in
        if speedup < floor then
          fail
            (Printf.sprintf "kernel %S speedup %.2fx vs seed is below the %.2fx floor" name speedup
               floor);
        [
          name;
          (match base_speedup with Some s -> Printf.sprintf "%.2fx" s | None -> "-");
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.2fx" floor;
        ])
      gated
  in
  Analysis.Report.section "Baseline check (current vs committed BENCH_baseline.json)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Kernel"; "Baseline speedup"; "Current speedup"; "Floor" ]
      ~rows:speedup_rows
  ^ "\n\nEvery kernel holds its speedup-vs-seed floor.\n\n"
  ^ Analysis.Report.table ~headers:[ "Operation"; "Budget (minor words)"; "Current" ]
      ~rows:alloc_rows
  ^ Printf.sprintf "\n\nEvery operation allocates within %.0f%% of its budget.\n\n"
      ((alloc_margin -. 1.0) *. 100.0)
  ^ Analysis.Report.table
      ~headers:[ "Kernel"; "Baseline ops/s"; "Current ops/s"; "Ratio (report only)" ]
      ~rows:ops_rows
  ^ "\n"

(* --- Microbenchmarks ----------------------------------------------------------- *)

let microbenches () =
  (* Validated before the bechamel table, so a bad budget fails fast. *)
  let budget_ms = bench_ms () in
  let open Bechamel in
  let env = Tls.Config.sim_env () in
  let rng = Crypto.Rng.create ~seed:"bench" in
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
      ~rng:(Crypto.Rng.create ~seed:"bench-server")
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
      ~rng:(Crypto.Rng.create ~seed:"bench-client") ()
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
  let rng_draws = Crypto.Rng.create ~seed:"bench-rng" in
  let rng_parent = Crypto.Rng.state (Crypto.Rng.create ~seed:"bench-rng-parent") in
  let sha_block = Bytes.make Crypto.Sha256.block_size 'b' in
  let sha_out = Bytes.create Crypto.Sha256.digest_size in
  let mac_ctx = Crypto.Hmac.key (String.make 32 'k') in
  let msg32 = String.make 32 'm' in
  let rng_bn = Crypto.Rng.create ~seed:"bench-bignum" in
  let bytes32 = Crypto.Rng.generate rng_bn 32 in
  let a112 = Crypto.Bignum.of_bytes_be ("\x80" ^ Crypto.Rng.generate rng_bn 13) in
  let b56 = Crypto.Bignum.of_bytes_be ("\x80" ^ Crypto.Rng.generate rng_bn 6) in
  (* Counted before the timed runs, which move every fixture's state by
     a host-dependent number of operations. *)
  let allocs =
    List.map
      (fun (name, f) -> (name, minor_words_per_op f))
      [
        ("handshake/full-ecdhe-fresh", connect ecdhe_server Tls.Client.Fresh);
        ("handshake/resume-ticket", connect ecdhe_server ticket_offer);
        ("ticket/seal", fun () -> ignore (Tls.Ticket.seal stek rng session));
        ( "ticket/unseal",
          fun () ->
            match Tls.Ticket.unseal ~find_stek sealed with Ok _ -> () | Error _ -> assert false );
      ]
  in
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
      (* Asymmetric primitives, simulation- and production-sized. P-256
         runs on the seed-era double-and-add ([Ec.Reference]), so its
         rows time that simple ladder. *)
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
        (Staged.stage (fun () -> ignore (Crypto.Dh.gen_keypair Crypto.Dh.oakley2 rng)));
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
      (* The shapes most simulation hashing takes: one compression, a
         one-block MAC under a kept context, and the two commonest Rng
         calls: a word draw (a quarter of a compression) and a fork (one
         compression). A parent forks a label once, so each fork comes
         from a fresh copy of one parent; a restore at a block boundary
         hashes nothing. *)
      Test.make ~name:"sym/sha256-block"
        (Staged.stage (fun () -> Crypto.Sha256.midstate_of_block sha_block sha_out ~pos:0));
      Test.make ~name:"sym/hmac-sha256-32B"
        (Staged.stage (fun () -> ignore (Crypto.Hmac.mac mac_ctx msg32)));
      Test.make ~name:"rng/int_below"
        (Staged.stage (fun () -> ignore (Crypto.Rng.int_below rng_draws 1000)));
      Test.make ~name:"rng/fork"
        (Staged.stage (fun () ->
             ignore (Crypto.Rng.fork (Crypto.Rng.restore ~state:rng_parent) ~label:"bench")));
      (* The Bignum conversions and division under every ECDSA signature,
         point decoding and Miller-Rabin round: a 32-byte hash or
         coordinate decoded, and a 112-bit value reduced by a 56-bit one. *)
      Test.make ~name:"bignum/of_bytes_be-32B"
        (Staged.stage (fun () -> ignore (Crypto.Bignum.of_bytes_be bytes32)));
      Test.make ~name:"bignum/rem-112/56"
        (Staged.stage (fun () -> ignore (Crypto.Bignum.rem a112 b56)));
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
  Analysis.Report.section "Microbenchmarks (bechamel, monotonic clock)"
  ^ "\n"
  ^ Analysis.Report.table
      ~headers:[ "Operation"; "Time/run"; "r^2" ]
      ~rows:(List.map (fun (n, ns, r2) -> [ n; pretty_ns ns; Printf.sprintf "%.3f" r2 ]) rows)
  ^ "\n\nThe gap between full handshakes and resumptions is the performance incentive behind\n\
     the paper's crypto shortcuts; production-sized DHE (Oakley 1024) shows why servers\n\
     cached ephemeral values.\n"
  ^ "\n"
  ^ Analysis.Report.section
      (Printf.sprintf "Minor words per operation (%d runs after one warm-up)" alloc_runs)
  ^ "\n"
  ^ Analysis.Report.table ~headers:[ "Operation"; "Minor words" ]
      ~rows:(List.map (fun (n, w) -> [ n; Printf.sprintf "%.1f" w ]) allocs)
  ^ "\n\n" ^ kernel_report ~budget_ms ~allocs

(* --- Driver ------------------------------------------------------------------------- *)

let named = [ ("micro", microbenches); ("check-baseline", check_baseline) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  let selected = match args with [] -> List.map fst named | ids -> ids in
  List.iter
    (fun id ->
      if not (List.mem_assoc id named) then (
        Printf.eprintf "bench: unknown entry %S; available: %s\n" id
          (String.concat " " (List.map fst named));
        exit 1))
    selected;
  List.iter (fun id -> print_endline (List.assoc id named ())) selected;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
