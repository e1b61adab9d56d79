(* Differential oracle: SHA-256, HMAC-SHA256, the TLS 1.2 PRF and
   HKDF-Expand against the `openssl` command-line tool, over inputs drawn
   from a fixed seed. Keys run past the 64-byte block (so HMAC hashes
   them first) and messages cross block boundaries; HMAC under a 32-byte
   key also runs at every message length 0-130, across the one-block
   limit at 55 bytes and the two-block limit at 119. The [Rng]
   generator's root key, fork keys and blocks are checked against
   `openssl dgst` of their documented hash inputs. AES blocks, AES-128-CBC
   with PKCS#7 and sealed TLS 1.2 session tickets and TLS 1.3 PSK tickets
   agree with `openssl enc` (the tickets' MACs with `openssl dgst -mac
   HMAC`). The TLS 1.3 key schedule's secrets and resumption PSKs agree
   with `openssl kdf TLS13-KDF`. ECDH runs on P-256 and
   on the 52-, 53- and 61-bit simulation curves against keys
   `openssl genpkey` generates and `openssl pkeyutl -derive`. Miller-Rabin
   agrees with `openssl prime` on the simulation groups' and curves'
   primes and on known composites.

   Usage: openssl_oracle.exe [--require]

   Without `openssl` on PATH this prints one skip line and exits 0, unless
   --require is given, in which case a missing `openssl` is a failure. *)

let cases = 50

let find_openssl () =
  let dirs = String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"") in
  List.find_map
    (fun dir ->
      let path = Filename.concat (if dir = "" then "." else dir) "openssl" in
      if Sys.file_exists path && not (Sys.is_directory path) then Some path else None)
    dirs

let hex = Wire.Hex.encode

(* Run openssl with [args] and return its binary stdout, or fail with the
   command line if it exits nonzero. *)
let run openssl args =
  let ic = Unix.open_process_args_in openssl (Array.of_list (openssl :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> failwith ("openssl failed: " ^ String.concat " " args)

let with_temp f =
  let path = Filename.temp_file "tlsharm-oracle" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_file data f =
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
      f path)

module Rng = Crypto.Rng

let rand = Rng.create ~seed:"openssl-oracle"
let bytes ~max () = Rng.generate rand (Rng.int_below rand (max + 1))
let nonempty_bytes ~max () = Rng.generate rand (Rng.int_range rand 1 max)
let draw gen = List.init cases (fun _ -> gen ())

let failures = ref 0

let check kind ~input ~expected ~actual =
  if not (String.equal expected actual) then begin
    incr failures;
    Printf.printf "MISMATCH %s on %s\n  openssl: %s\n  tlsharm: %s\n" kind input (hex expected)
      (hex actual)
  end

let sha256 openssl =
  List.iter
    (fun msg ->
      let expected = with_file msg (fun f -> run openssl [ "dgst"; "-sha256"; "-binary"; f ]) in
      check "sha256" ~input:(hex msg) ~expected ~actual:(Crypto.Sha256.digest msg))
    (draw (bytes ~max:300))

(* The openssl CLI refuses an empty HMAC key, so keys have at least one byte. *)
let hmac openssl =
  List.iter
    (fun (key, msg) ->
      let expected =
        with_file msg (fun f ->
            run openssl
              [ "dgst"; "-sha256"; "-mac"; "HMAC"; "-macopt"; "hexkey:" ^ hex key; "-binary"; f ])
      in
      check "hmac-sha256" ~input:(hex key ^ " / " ^ hex msg) ~expected
        ~actual:(Crypto.Hmac.sha256 ~key msg))
    (draw (fun () ->
         let key = nonempty_bytes ~max:150 () in
         (key, bytes ~max:300 ())))

(* A 32-byte key, the PRF's master secret's size, at every message length
   0-130: the one-block path ends at 55 bytes, the block at 64, the
   two-block path at 119 and the second block at 128. Its own stream, so
   the draws of every other section stay as they were. *)
let hmac_lengths openssl =
  let rand = Rng.create ~seed:"openssl-oracle-lengths" in
  let key = Rng.generate rand 32 in
  let ctx = Crypto.Hmac.key key in
  for len = 0 to 130 do
    let msg = Rng.generate rand len in
    let expected =
      with_file msg (fun f ->
          run openssl [ "dgst"; "-sha256"; "-mac"; "HMAC"; "-macopt"; "hexkey:" ^ hex key; "-binary"; f ])
    in
    check "hmac-sha256 (32-byte key)" ~input:(hex key ^ " / " ^ hex msg) ~expected
      ~actual:(Crypto.Hmac.mac ctx msg)
  done

let kdf openssl ~keylen opts name =
  run openssl
    ([ "kdf"; "-binary"; "-keylen"; string_of_int keylen; "-kdfopt"; "digest:SHA256" ]
    @ List.concat_map (fun o -> [ "-kdfopt"; o ]) opts
    @ [ name ])

let tls1_prf openssl =
  List.iter
    (fun (secret, (label, seed), n) ->
      let expected =
        kdf openssl ~keylen:n [ "hexsecret:" ^ hex secret; "hexseed:" ^ hex (label ^ seed) ] "TLS1-PRF"
      in
      check "tls1-prf" ~input:(Printf.sprintf "%s / %s%s / %d" (hex secret) (hex label) (hex seed) n)
        ~expected ~actual:(Crypto.Prf.prf ~secret ~label ~seed n))
    (draw (fun () ->
         let secret = bytes ~max:150 () in
         let label = nonempty_bytes ~max:20 () in
         let seed = bytes ~max:100 () in
         (secret, (label, seed), Rng.int_range rand 1 200)))

let hkdf_expand openssl =
  List.iter
    (fun (prk, info, n) ->
      let expected =
        kdf openssl ~keylen:n [ "hexkey:" ^ hex prk; "hexinfo:" ^ hex info; "mode:EXPAND_ONLY" ] "HKDF"
      in
      check "hkdf-expand" ~input:(Printf.sprintf "%s / %s / %d" (hex prk) (hex info) n) ~expected
        ~actual:(Crypto.Hkdf.expand ~prk ~info n))
    (draw (fun () ->
         let prk = nonempty_bytes ~max:150 () in
         let info = bytes ~max:200 () in
         (prk, info, Rng.int_range rand 1 300)))

(* The generator against its documented construction: root key
   SHA-256("tlsharm-rng" || 0x02 || seed); fork key
   SHA-256(key || 0x01 || label), for labels hashed in one block, in two
   and streamed; and block i SHA-256(key || 0x00 || i as 8 bytes
   big-endian), here the first three and one far block reached through
   [restore]. *)
let rng openssl =
  let dgst data = with_file data (fun f -> run openssl [ "dgst"; "-sha256"; "-binary"; f ]) in
  let block key i =
    let idx = Bytes.create 8 in
    Bytes.set_int64_be idx 0 (Int64.of_int i);
    dgst (key ^ "\x00" ^ Bytes.to_string idx)
  in
  let key_of t = (Rng.state t).Rng.key in
  let seed = "oracle-seed" in
  let root = dgst ("tlsharm-rng\x02" ^ seed) in
  let t = Rng.create ~seed in
  check "rng root key" ~input:seed ~expected:root ~actual:(key_of t);
  check "rng blocks 0-2" ~input:seed
    ~expected:(String.concat "" (List.map (block root) [ 0; 1; 2 ]))
    ~actual:(Rng.generate t 96);
  List.iter
    (fun label ->
      check "rng fork key" ~input:label ~expected:(dgst (root ^ "\x01" ^ label))
        ~actual:(key_of (Rng.fork t ~label)))
    [ "ep:cloudflare:edge:7"; String.make 60 'M'; String.make 100 'L' ];
  let far = 1 lsl 40 in
  check "rng far block" ~input:(string_of_int far) ~expected:(block root far)
    ~actual:(Rng.generate (Rng.restore ~state:{ Rng.key = root; counter = far; offset = 32 }) 32)

(* AES single blocks in both directions under 128-, 192- and 256-bit keys
   (`enc -aes-N-ecb -nopad`), and CBC with PKCS#7 padding under 128-bit
   keys (`enc -aes-128-cbc`, whose default padding is PKCS#7) at lengths
   0-100, so the padding covers a whole block as well as partial ones.
   Each CBC ciphertext is also opened by [Block_mode.cbc_decrypt]. Its
   own stream, so the draws of every other section stay as they were. *)
let aes openssl =
  let rand = Rng.create ~seed:"openssl-oracle-aes" in
  let enc ?(decrypt = false) ?(nopad = false) cipher ~key ?iv data =
    with_file data (fun f ->
        run openssl
          ([ "enc"; cipher; "-K"; hex key ]
          @ (match iv with Some iv -> [ "-iv"; hex iv ] | None -> [])
          @ (if decrypt then [ "-d" ] else [])
          @ (if nopad then [ "-nopad" ] else [])
          @ [ "-in"; f ]))
  in
  List.iter
    (fun bits ->
      let cipher = Printf.sprintf "-aes-%d-ecb" bits in
      for _ = 1 to cases / 5 do
        let key = Rng.generate rand (bits / 8) and block = Rng.generate rand 16 in
        let t = Crypto.Aes.of_key key in
        let input = hex key ^ " / " ^ hex block in
        check (Printf.sprintf "aes-%d encrypt" bits) ~input
          ~expected:(enc ~nopad:true cipher ~key block)
          ~actual:(Crypto.Aes.encrypt_block t block);
        check (Printf.sprintf "aes-%d decrypt" bits) ~input
          ~expected:(enc ~decrypt:true ~nopad:true cipher ~key block)
          ~actual:(Crypto.Aes.decrypt_block t block)
      done)
    [ 128; 192; 256 ];
  for len = 0 to 100 do
    let key = Rng.generate rand 16 and iv = Rng.generate rand 16 in
    let plain = Rng.generate rand len in
    let t = Crypto.Aes.of_key key in
    let input = Printf.sprintf "%s / %s / %s" (hex key) (hex iv) (hex plain) in
    let expected = enc "-aes-128-cbc" ~key ~iv plain in
    check "aes-128-cbc encrypt" ~input ~expected ~actual:(Crypto.Block_mode.cbc_encrypt t ~iv plain);
    check "aes-128-cbc decrypt" ~input ~expected:plain
      ~actual:
        (match Crypto.Block_mode.cbc_decrypt t ~iv expected with Ok p -> p | Error e -> e)
  done

(* An RFC 5077 envelope opened with openssl alone: the key name, the
   length field, `enc -d -aes-128-cbc` back to [plain] and `dgst -mac
   HMAC` over everything before the MAC. [raw] is the STEK's 64 bytes,
   key name || AES-128 key || HMAC key. *)
let check_envelope openssl kind ~raw ~plain ticket =
  let n = String.length ticket in
  let input = hex ticket in
  check (kind ^ " key name") ~input ~expected:(String.sub raw 0 16) ~actual:(String.sub ticket 0 16);
  let len = (Char.code ticket.[32] lsl 8) lor Char.code ticket.[33] in
  check (kind ^ " layout") ~input ~expected:(string_of_int (34 + len + 32)) ~actual:(string_of_int n);
  let expected_plain =
    with_file (String.sub ticket 34 len) (fun f ->
        run openssl
          [ "enc"; "-d"; "-aes-128-cbc"; "-K"; hex (String.sub raw 16 16); "-iv";
            hex (String.sub ticket 16 16); "-in"; f ])
  in
  check (kind ^ " state") ~input ~expected:expected_plain ~actual:plain;
  let expected_mac =
    with_file (String.sub ticket 0 (n - 32)) (fun f ->
        run openssl
          [ "dgst"; "-sha256"; "-mac"; "HMAC"; "-macopt"; "hexkey:" ^ hex (String.sub raw 32 32);
            "-binary"; f ])
  in
  check (kind ^ " mac") ~input ~expected:expected_mac ~actual:(String.sub ticket (n - 32) 32)

(* The raw bytes behind [Stek.derive ~secret ~period]: 64 bytes from the
   [Rng] seeded "stek:SECRET:PERIOD". *)
let stek_raw ~secret ~period =
  Rng.generate (Rng.create ~seed:(Printf.sprintf "stek:%s:%d" secret period)) 64

(* Sealed tickets opened with openssl alone (RFC 5077 section 4). 1.2
   tickets carry the session's bytes, and sessions vary in suite, ID
   length and time. TLS 1.3 PSK tickets carry vec8 psk || u64 issued_at
   || u32 lifetime || u32 max_early_data, written out here from that
   layout. *)
let tickets openssl =
  let rand = Rng.create ~seed:"openssl-oracle-tickets" in
  let suites = Tls.Types.all_cipher_suites in
  for i = 0 to (cases / 5) - 1 do
    let secret = Printf.sprintf "oracle-%d" i and period = Rng.int_below rand 1000 in
    let stek = Tls.Stek.derive ~secret ~period ~now:(period * 86400) in
    let session =
      Tls.Session.make
        ~id:(Rng.generate rand (Rng.int_below rand 33))
        ~master_secret:(Rng.generate rand 48)
        ~cipher_suite:(List.nth suites (i mod List.length suites))
        ~established_at:(Rng.int_below rand 2_000_000_000)
    in
    let ticket = Tls.Ticket.seal stek (Rng.fork rand ~label:(string_of_int i)) session in
    check_envelope openssl "ticket" ~raw:(stek_raw ~secret ~period)
      ~plain:(Tls.Session.to_bytes session) ticket
  done;
  let rand = Rng.create ~seed:"openssl-oracle-psk-tickets" in
  for i = 0 to (cases / 5) - 1 do
    let secret = Printf.sprintf "oracle-psk-%d" i and period = Rng.int_below rand 1000 in
    let stek = Tls.Stek.derive ~secret ~period ~now:(period * 86400) in
    let state =
      {
        Tls.Tls13.psk = Rng.generate rand 32;
        issued_at = Rng.int_below rand 2_000_000_000;
        lifetime = Rng.int_below rand (7 * 86400 + 1);
        max_early_data = Rng.int_below rand 65536;
      }
    in
    let plain =
      Wire.Writer.build (fun w ->
          Wire.Writer.vec8 w state.Tls.Tls13.psk;
          Wire.Writer.u64 w state.issued_at;
          Wire.Writer.u32 w state.lifetime;
          Wire.Writer.u32 w state.max_early_data)
    in
    let ticket = Tls.Tls13.seal_psk stek (Rng.fork rand ~label:(string_of_int i)) state in
    check_envelope openssl "psk ticket" ~raw:(stek_raw ~secret ~period) ~plain ticket
  done

(* The TLS 1.3 key schedule (RFC 8446 section 7.1) against `openssl kdf
   TLS13-KDF`. EXTRACT_ONLY without a salt extracts under a zero salt
   (the early secret); with a salt it takes the salt as the previous
   stage's secret and first expands it under the prefix and label given,
   here "tls13 " and "derived" (RFC 8446's Derive-Secret(., "derived",
   "")); an absent key is the all-zero input. EXPAND_ONLY with prefix "tls13 " is
   Derive-Secret, its data the transcript hash. Seeded PSKs, (EC)DHE
   outputs and transcripts run in three shapes: psk_ke (PSK, no DH),
   psk_dhe_ke (both) and a full handshake (DH, no PSK). Then a chain of
   [Tls13.connect]s checks that each new ticket's PSK is the
   "resumption" expansion of the resumption master secret under the
   ServerHello's nonce. *)
let tls13_schedule openssl =
  let rand = Rng.create ~seed:"openssl-oracle-tls13" in
  let tls13 opts = kdf openssl ~keylen:32 opts "TLS13-KDF" in
  let opt name = Option.fold ~none:[] ~some:(fun v -> [ name ^ hex v ]) in
  let extract ?salt key =
    tls13 ([ "mode:EXTRACT_ONLY"; "prefix:tls13 "; "label:derived" ] @ opt "hexsalt:" salt @ opt "hexkey:" key)
  in
  let expand secret label data =
    tls13 [ "mode:EXPAND_ONLY"; "hexkey:" ^ hex secret; "prefix:tls13 "; "label:" ^ label; "hexdata:" ^ hex data ]
  in
  let empty_hash = Crypto.Sha256.digest "" in
  for i = 0 to cases - 1 do
    let psk = if i mod 3 = 2 then None else Some (Rng.generate rand 32) in
    let dh_shared = if i mod 3 = 0 then None else Some (nonempty_bytes ~max:66 ()) in
    let ch = bytes ~max:300 () in
    let sh = bytes ~max:300 () in
    let ch_hash = Crypto.Sha256.digest ch and full_hash = Crypto.Sha256.digest (ch ^ sh) in
    let s = Tls.Tls13.key_schedule ?psk ?dh_shared ~ch_hash ~full_hash () in
    let input =
      Printf.sprintf "psk %s / dh %s / ch %s / sh %s"
        (Option.fold ~none:"-" ~some:hex psk) (Option.fold ~none:"-" ~some:hex dh_shared) (hex ch) (hex sh)
    in
    let early = extract psk in
    let handshake = extract ~salt:early dh_shared in
    let master = extract ~salt:handshake None in
    List.iter
      (fun (kind, expected, actual) -> check ("tls13 " ^ kind) ~input ~expected ~actual)
      [
        ("early secret", early, s.Tls.Tls13.early_secret);
        ("res binder", expand early "res binder" empty_hash, s.binder_key);
        ("c e traffic", expand early "c e traffic" ch_hash, s.client_early_traffic);
        ("handshake secret", handshake, s.handshake_secret);
        ("master secret", master, s.master_secret);
        ("c ap traffic", expand master "c ap traffic" full_hash, s.client_app_traffic);
        ("s ap traffic", expand master "s ap traffic" full_hash, s.server_app_traffic);
        ("res master", expand master "res master" full_hash, s.resumption_master);
      ]
  done;
  let env = Tls.Config.sim_env () in
  let server =
    Tls.Tls13.server
      ~config:
        {
          Tls.Tls13.curve = env.Tls.Config.ecdhe_curve;
          stek_manager = Tls.Stek_manager.create ~policy:Tls.Stek_manager.Static ~secret:"oracle" ~now:0;
          psk_lifetime = 7 * 86400;
          allowed_modes = [ Tls.Tls13.Psk_ke; Tls.Tls13.Psk_dhe_ke ];
          max_early_data = 16384;
        }
      ~rng:(Rng.create ~seed:"openssl-oracle-tls13-server")
  in
  let client_rng = Rng.create ~seed:"openssl-oracle-tls13-client" in
  let offer = ref Tls.Tls13.Fresh13 in
  for i = 0 to (cases / 5) - 1 do
    match Tls.Tls13.connect ~client_rng server ~now:(100 * (i + 1)) ~offer:!offer with
    | Error e -> check "tls13 connect" ~input:(string_of_int i) ~expected:"ok" ~actual:e
    | Ok (sr, cl) -> (
        match (sr.Tls.Tls13.sr_hello.Tls.Tls13.sh_new_ticket, cl.Tls.Tls13.cl_new_ticket) with
        | Some (nonce, _), Some (ticket, state) ->
            check "tls13 resumption psk" ~input:(hex nonce)
              ~expected:(expand cl.Tls.Tls13.cl_secrets.Tls.Tls13.resumption_master "resumption" nonce)
              ~actual:state.Tls.Tls13.psk;
            let mode = if i mod 2 = 0 then Tls.Tls13.Psk_ke else Tls.Tls13.Psk_dhe_ke in
            offer := Tls.Tls13.Resume13 { ticket; state; mode; early_data = None }
        | _ -> check "tls13 new ticket" ~input:(string_of_int i) ~expected:"issued" ~actual:"none")
  done

module Ec = Crypto.Ec

(* Simulation curves are passed as explicit parameters. Every one is
   y^2 = x^3 + x with cofactor 4, as [Ec.generate_small] builds them. *)
let ec_keygen_opts c =
  if c == Ec.p256 then [ "ec_paramgen_curve:P-256" ]
  else
    let dec = Crypto.Bignum.to_decimal in
    [
      "field-type:prime-field";
      "p:" ^ dec (Ec.curve_p c);
      "a:1";
      "b:0";
      "hexgenerator:" ^ hex (Ec.point_bytes c (Ec.base_point c));
      "order:" ^ dec (Ec.curve_order c);
      "cofactor:4";
    ]

(* The colon-separated hex block that follows the line [label] in
   `openssl pkey -text` output, as bytes. *)
let text_block text label =
  let rec find = function
    | [] -> failwith ("openssl pkey -text: no " ^ label ^ " block")
    | l :: rest when String.trim l = label -> block rest []
    | _ :: rest -> find rest
  and block lines acc =
    match lines with
    | l :: rest when String.starts_with ~prefix:" " l -> block rest (String.trim l :: acc)
    | _ -> String.concat "" (String.split_on_char ':' (String.concat "" (List.rev acc)))
  in
  Wire.Hex.decode (find (String.split_on_char '\n' text))

(* Two openssl keys per curve. Our decoder must accept both public keys,
   our fixed-base ladder must map each private scalar to its public key,
   and our shared secret must equal `pkeyutl -derive`. *)
let ecdh openssl (label, c) =
  let genpkey pem =
    ignore
      (run openssl
         ([ "genpkey"; "-algorithm"; "EC" ]
         @ List.concat_map (fun o -> [ "-pkeyopt"; o ]) (ec_keygen_opts c)
         @ [ "-out"; pem ]))
  in
  let key pem =
    let text = run openssl [ "pkey"; "-in"; pem; "-text"; "-noout" ] in
    let pub = text_block text "pub:" in
    let kp = Ec.keypair_of_private c (Crypto.Bignum.of_bytes_be (text_block text "priv:")) in
    check ("ecdh-" ^ label ^ " public key") ~input:(hex pub) ~expected:pub ~actual:(Ec.public_bytes kp);
    match Ec.point_of_bytes c pub with
    | Ok pt -> (kp, pt)
    | Error e ->
        check ("ecdh-" ^ label ^ " point_of_bytes") ~input:(hex pub) ~expected:"accepted" ~actual:e;
        (kp, Ec.Inf)
  in
  with_temp (fun a_pem ->
      with_temp (fun b_pem ->
          with_temp (fun b_pub_pem ->
              genpkey a_pem;
              genpkey b_pem;
              ignore (run openssl [ "pkey"; "-in"; b_pem; "-pubout"; "-out"; b_pub_pem ]);
              let a, _ = key a_pem and _, b_pub = key b_pem in
              let expected =
                run openssl [ "pkeyutl"; "-derive"; "-inkey"; a_pem; "-peerkey"; b_pub_pem ]
              in
              let actual =
                match Ec.shared_secret a ~peer_pub:b_pub with Ok z -> z | Error e -> e
              in
              check ("ecdh-" ^ label) ~input:(hex (Ec.public_bytes a) ^ " x " ^ hex (Ec.point_bytes c b_pub))
                ~expected ~actual)))

(* Primality: `openssl prime` and [Dh.is_probably_prime] must give the
   same answer on the simulation parameters [Tls.Config.sim_env] finds
   at the default seed and at perfbench-1 (the DH group's p and
   (p - 1) / 2, both curves' p and prime order q), and on known
   composites: the Carmichael numbers 561, 41041 and 3215031751 (a
   strong pseudoprime to bases 2, 3, 5 and 7) and a product of two
   31-bit primes. *)
let primality_cases () =
  let module B = Crypto.Bignum in
  let of_env name (env : Tls.Config.env) =
    let p = Crypto.Dh.group_p env.Tls.Config.dh_group in
    let curve label c = [ (label ^ " p", Ec.curve_p c); (label ^ " q", Ec.curve_order c) ] in
    List.map
      (fun (label, n) -> (name ^ " " ^ label, n))
      ([ ("dh p", p); ("dh (p-1)/2", B.shift_right (B.sub p B.one) 1) ]
      @ curve "ecdhe" env.Tls.Config.ecdhe_curve
      @ curve "pki" env.Tls.Config.pki_curve)
  in
  of_env "default" (Tls.Config.sim_env ())
  @ of_env "perfbench-1" (Tls.Config.sim_env ~seed:"perfbench-1" ())
  @ List.map
      (fun d -> ("composite " ^ d, B.of_decimal d))
      [ "561"; "41041"; "3215031751"; "4611685975477714963" (* 2147483647 * 2147483629 *) ]

let primality openssl cases =
  List.iter
    (fun (label, n) ->
      let dec = Crypto.Bignum.to_decimal n in
      let out = run openssl [ "prime"; dec ] in
      let expected =
        if String.ends_with ~suffix:" is prime\n" out then "prime"
        else if String.ends_with ~suffix:" is not prime\n" out then "composite"
        else failwith ("openssl prime: unexpected output " ^ String.escaped out)
      in
      let actual = if Crypto.Dh.is_probably_prime n then "prime" else "composite" in
      check ("primality " ^ label) ~input:dec ~expected ~actual)
    cases

let ecdh_curves () =
  let env = Tls.Config.sim_env () in
  [
    ("p256", Ec.p256);
    ("sim52", env.Tls.Config.ecdhe_curve);
    ("sim53", env.Tls.Config.pki_curve);
    ("sim61", Ec.generate_small ~bits:61 ~seed:"test");
  ]

let () =
  let require = Array.exists (String.equal "--require") Sys.argv in
  match find_openssl () with
  | None when require ->
      prerr_endline "openssl oracle: openssl not found on PATH (required by --require)";
      exit 1
  | None -> print_endline "openssl oracle: SKIPPED (openssl not found on PATH)"
  | Some openssl ->
      sha256 openssl;
      hmac openssl;
      hmac_lengths openssl;
      tls1_prf openssl;
      hkdf_expand openssl;
      rng openssl;
      aes openssl;
      tickets openssl;
      tls13_schedule openssl;
      let curves = ecdh_curves () in
      List.iter (ecdh openssl) curves;
      let primes = primality_cases () in
      primality openssl primes;
      if !failures > 0 then begin
        Printf.printf "openssl oracle: %d mismatches\n" !failures;
        exit 1
      end;
      Printf.printf
        "openssl oracle: %d cases each of sha256, hmac, tls1-prf, hkdf-expand agree; hmac agrees at \
         every length 0-130; rng keys and blocks agree; aes blocks, aes-128-cbc and sealed 1.2 and 1.3 \
         tickets agree; the tls13 key schedule and resumption psks agree; ecdh agrees on %s; primality agrees on \
         %d numbers\n"
        cases (String.concat ", " (List.map fst curves)) (List.length primes)
