(* Differential oracle: SHA-256, HMAC-SHA256, the TLS 1.2 PRF and
   HKDF-Expand against the `openssl` command-line tool, over inputs drawn
   from a fixed qcheck seed. Keys run past the 64-byte block (so HMAC
   hashes them first) and messages cross block boundaries; HMAC under a
   32-byte key also runs at every message length 0-64, across the
   one-block limit at 55 bytes. ECDH runs on
   P-256 and on the 52-, 53- and 61-bit simulation curves against keys
   `openssl genpkey` generates and `openssl pkeyutl -derive`.

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

let bytes_gen ~max = QCheck2.Gen.(string_size ~gen:char (int_range 0 max))
let nonempty_bytes_gen ~max = QCheck2.Gen.(string_size ~gen:char (int_range 1 max))
let rand = Random.State.make [| 0x0551 |]
let draw gen = QCheck2.Gen.generate ~rand ~n:cases gen

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
    (draw (bytes_gen ~max:300))

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
    (draw QCheck2.Gen.(pair (nonempty_bytes_gen ~max:150) (bytes_gen ~max:300)))

(* A 32-byte key, the DRBG's, at every message length 0-64: the one-block
   path ends at 55 bytes and the block at 64. Its own random state, so
   the draws of every other section stay as they were. *)
let hmac_lengths openssl =
  let rand = Random.State.make [| 0x0552 |] in
  let exactly n = QCheck2.Gen.generate1 ~rand QCheck2.Gen.(string_size ~gen:char (pure n)) in
  let key = exactly 32 in
  let ctx = Crypto.Hmac.key key in
  for len = 0 to 64 do
    let msg = exactly len in
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
    (draw
       QCheck2.Gen.(
         triple (bytes_gen ~max:150)
           (pair (nonempty_bytes_gen ~max:20) (bytes_gen ~max:100))
           (int_range 1 200)))

let hkdf_expand openssl =
  List.iter
    (fun (prk, info, n) ->
      let expected =
        kdf openssl ~keylen:n [ "hexkey:" ^ hex prk; "hexinfo:" ^ hex info; "mode:EXPAND_ONLY" ] "HKDF"
      in
      check "hkdf-expand" ~input:(Printf.sprintf "%s / %s / %d" (hex prk) (hex info) n) ~expected
        ~actual:(Crypto.Hkdf.expand ~prk ~info n))
    (draw QCheck2.Gen.(triple (nonempty_bytes_gen ~max:150) (bytes_gen ~max:200) (int_range 1 300)))

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
      let curves = ecdh_curves () in
      List.iter (ecdh openssl) curves;
      if !failures > 0 then begin
        Printf.printf "openssl oracle: %d mismatches\n" !failures;
        exit 1
      end;
      Printf.printf
        "openssl oracle: %d cases each of sha256, hmac, tls1-prf, hkdf-expand agree; hmac agrees at \
         every length 0-64; ecdh agrees on %s\n"
        cases (String.concat ", " (List.map fst curves))
