(* Differential oracle: SHA-256, HMAC-SHA256, the TLS 1.2 PRF and
   HKDF-Expand against the `openssl` command-line tool, over inputs drawn
   from a fixed qcheck seed. Keys run past the 64-byte block (so HMAC
   hashes them first) and messages cross block boundaries.

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

let with_file data f =
  let path = Filename.temp_file "tlsharm-oracle" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
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
      tls1_prf openssl;
      hkdf_expand openssl;
      if !failures > 0 then begin
        Printf.printf "openssl oracle: %d mismatches\n" !failures;
        exit 1
      end;
      Printf.printf "openssl oracle: %d cases each of sha256, hmac, tls1-prf, hkdf-expand agree\n"
        cases
