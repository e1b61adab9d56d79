(* Tests for the crypto substrate: known-answer vectors for SHA-256, HMAC,
   AES and X25519; structural self-checks for the DH/EC domain parameters;
   and qcheck properties for the bignum and mode-of-operation layers. *)

let hex = Wire.Hex.decode

let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Wire.Hex.encode actual)

(* --- Hex ------------------------------------------------------------------ *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff binary" in
  Alcotest.(check string) "roundtrip" s (Wire.Hex.decode (Wire.Hex.encode s));
  Alcotest.(check string) "whitespace tolerated" "\xde\xad\xbe\xef"
    (Wire.Hex.decode "de ad\nbe\tef");
  Alcotest.(check (option string)) "odd length rejected" None (Wire.Hex.decode_opt "abc")

(* --- SHA-256 -------------------------------------------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Crypto.Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Crypto.Sha256.digest "abc");
  check_hex "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Crypto.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_streaming () =
  (* Incremental updates across block boundaries agree with one-shot. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let t = Crypto.Sha256.init () in
  let pos = ref 0 in
  let chunks = [ 1; 3; 63; 64; 65; 200; 604 ] in
  List.iter
    (fun n ->
      Crypto.Sha256.update t (String.sub msg !pos n);
      pos := !pos + n)
    chunks;
  Alcotest.(check int) "consumed all" 1000 !pos;
  Alcotest.(check string) "streaming = one-shot" (Crypto.Sha256.digest msg)
    (Crypto.Sha256.finalize t)

(* Streaming with random split points agrees with one-shot at every length
   up to 130 bytes, which crosses each padding boundary (55/56 and 119/120
   bytes decide whether the length spills into an extra block; 63/64 and
   127/128 fill the staging block exactly). *)
let test_sha256_split_lengths () =
  let rng = Crypto.Rng.create ~seed:"sha256-splits" in
  for len = 0 to 130 do
    let msg = String.init len (fun i -> Char.chr (((i * 7) + len) land 0xff)) in
    let expected = Crypto.Sha256.digest msg in
    for _ = 1 to 4 do
      let t = Crypto.Sha256.init () in
      let pos = ref 0 in
      while !pos < len do
        let n = 1 + Crypto.Rng.int_below rng (len - !pos) in
        Crypto.Sha256.update t (String.sub msg !pos n);
        pos := !pos + n
      done;
      Alcotest.(check string) (Printf.sprintf "length %d" len) expected (Crypto.Sha256.finalize t)
    done
  done;
  check_hex "55 bytes" "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
    (Crypto.Sha256.digest (String.make 55 'a'));
  check_hex "56 bytes" "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
    (Crypto.Sha256.digest (String.make 56 'a'));
  check_hex "64 bytes" "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
    (Crypto.Sha256.digest (String.make 64 'a'))

(* FIPS 180-4 long-message vector: one million repetitions of 'a'. *)
(* [digest_short] at every length it takes, one compression up to 55
   bytes and two up to 119, with the digest written over the message. *)
let test_sha256_short_tails () =
  for len = 0 to Crypto.Sha256.max_tail do
    let msg = String.init len (fun i -> Char.chr (((i * 11) + len) land 0xff)) in
    let buf = Bytes.make (len + 40) '\x00' in
    Bytes.blit_string msg 0 buf 3 len;
    Crypto.Sha256.digest_short buf ~pos:3 ~len buf ~at:5;
    Alcotest.(check string) (Printf.sprintf "length %d" len) (Crypto.Sha256.digest msg)
      (Bytes.sub_string buf 5 32)
  done;
  Alcotest.check_raises "120 bytes refused"
    (Invalid_argument "Sha256.digest_short: message longer than 119 bytes") (fun () ->
      Crypto.Sha256.digest_short (Bytes.create 120) ~pos:0 ~len:120 (Bytes.create 32) ~at:0)

let test_sha256_million_a () =
  check_hex "1e6 x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_copy () =
  let t = Crypto.Sha256.init () in
  Crypto.Sha256.update t "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  let c = Crypto.Sha256.copy t in
  Crypto.Sha256.update c "-tail-only-in-copy";
  Alcotest.(check string) "original unaffected by copy's update"
    (Crypto.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
    (Crypto.Sha256.finalize (Crypto.Sha256.copy t));
  Crypto.Sha256.update t "abc";
  Alcotest.(check string) "copy unaffected by original's update"
    (Crypto.Sha256.digest
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq-tail-only-in-copy")
    (Crypto.Sha256.finalize c);
  Alcotest.(check string) "original continues its own stream"
    (Crypto.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopqabc")
    (Crypto.Sha256.finalize t)

(* --- HMAC (RFC 4231) ------------------------------------------------------ *)

let test_hmac_vectors () =
  (* RFC 4231 test case 1. *)
  check_hex "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There");
  (* RFC 4231 test case 2. *)
  check_hex "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?");
  (* RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data. *)
  check_hex "tc3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Crypto.Hmac.sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* RFC 4231 test case 4: 25-byte counting key, 50x 0xcd data. *)
  check_hex "tc4" "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Crypto.Hmac.sha256 ~key:(String.init 25 (fun i -> Char.chr (i + 1))) (String.make 50 '\xcd'));
  (* RFC 4231 test cases 6 and 7: a 131-byte key, longer than the block,
     so HMAC hashes the key first. *)
  let long_key = String.make 131 '\xaa' in
  check_hex "tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Crypto.Hmac.sha256 ~key:long_key "Test Using Larger Than Block-Size Key - Hash Key First");
  check_hex "tc7" "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Crypto.Hmac.sha256 ~key:long_key
       "This is a test using a larger than block-size key and a larger than block-size data. \
        The key needs to be hashed before being used by the HMAC algorithm.");
  (* A keyed context gives the same tags, however often it is reused. *)
  let ctx = Crypto.Hmac.key long_key in
  for _ = 1 to 2 do
    check_hex "tc6 via context" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
      (Crypto.Hmac.mac_parts ctx [ "Test Using Larger Than "; "Block-Size Key - Hash Key First" ])
  done

(* HMAC as RFC 2104 writes it, over nothing but [Sha256.digest]. *)
let textbook_hmac key msg =
  let key = if String.length key > 64 then Crypto.Sha256.digest key else key in
  let pad c =
    String.init 64 (fun i -> Char.chr (c lxor if i < String.length key then Char.code key.[i] else 0))
  in
  Crypto.Sha256.digest (pad 0x5c ^ Crypto.Sha256.digest (pad 0x36 ^ msg))

(* Message lengths 0-130 cross the one-block limit (55 bytes), the block
   boundary, the two-block limit (119 bytes) and the padding spill, under
   a key shorter and one longer than a block. [mac_parts] gets random
   splits, empty parts included. *)
let test_hmac_textbook () =
  let rand = Crypto.Rng.create ~seed:"hmac-textbook" in
  List.iter
    (fun key_len ->
      let key = String.init key_len (fun i -> Char.chr (((i * 13) + 1) land 0xff)) in
      let ctx = Crypto.Hmac.key key in
      for len = 0 to 130 do
        let msg = String.init len (fun i -> Char.chr (((i * 7) + len) land 0xff)) in
        let want = Wire.Hex.encode (textbook_hmac key msg) in
        let label what = Printf.sprintf "%s, %d-byte key, %d-byte message" what key_len len in
        check_hex (label "mac") want (Crypto.Hmac.mac ctx msg);
        let cuts =
          List.sort compare (List.init (Crypto.Rng.int_below rand 4) (fun _ -> Crypto.Rng.int_below rand (len + 1)))
        in
        let rec split from = function
          | [] -> [ String.sub msg from (len - from) ]
          | c :: rest -> String.sub msg from (c - from) :: split c rest
        in
        check_hex (label "mac_parts") want (Crypto.Hmac.mac_parts ctx (split 0 cuts));
      done)
    [ 32; 70 ]

let test_hmac_ct_equal () =
  Alcotest.(check bool) "equal" true (Crypto.Hmac.equal_ct "same-bytes" "same-bytes");
  Alcotest.(check bool) "different" false (Crypto.Hmac.equal_ct "same-bytes" "same-bytez");
  Alcotest.(check bool) "length mismatch" false (Crypto.Hmac.equal_ct "abc" "abcd")

(* --- AES (FIPS 197) ------------------------------------------------------- *)

let test_aes_vectors () =
  let pt = hex "00112233445566778899aabbccddeeff" in
  let k128 = Crypto.Aes.of_key (hex "000102030405060708090a0b0c0d0e0f") in
  check_hex "aes-128 encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (Crypto.Aes.encrypt_block k128 pt);
  let k192 = Crypto.Aes.of_key (hex "000102030405060708090a0b0c0d0e0f1011121314151617") in
  check_hex "aes-192 encrypt" "dda97ca4864cdfe06eaf70a0ec0d7191" (Crypto.Aes.encrypt_block k192 pt);
  let k256 =
    Crypto.Aes.of_key (hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  check_hex "aes-256 encrypt" "8ea2b7ca516745bfeafc49904b496089" (Crypto.Aes.encrypt_block k256 pt);
  Alcotest.(check string) "aes-128 decrypt" pt
    (Crypto.Aes.decrypt_block k128 (Crypto.Aes.encrypt_block k128 pt))

let test_aes_bad_key () =
  Alcotest.check_raises "bad key length" (Invalid_argument "Aes.of_key: bad key length 10")
    (fun () -> ignore (Crypto.Aes.of_key "0123456789"))

(* --- Block modes ----------------------------------------------------------- *)

let cbc_key = Crypto.Aes.of_key (String.init 16 (fun i -> Char.chr (17 * i land 0xff)))

let test_cbc_roundtrip () =
  let iv = String.make 16 '\x42' in
  List.iter
    (fun msg ->
      let ct = Crypto.Block_mode.cbc_encrypt cbc_key ~iv msg in
      Alcotest.(check int) "block aligned" 0 (String.length ct mod 16);
      match Crypto.Block_mode.cbc_decrypt cbc_key ~iv ct with
      | Ok pt -> Alcotest.(check string) "roundtrip" msg pt
      | Error e -> Alcotest.fail e)
    [ ""; "x"; String.make 15 'a'; String.make 16 'b'; String.make 17 'c'; String.make 100 'z' ]

let test_cbc_tamper () =
  let iv = String.make 16 '\x00' in
  let ct = Crypto.Block_mode.cbc_encrypt cbc_key ~iv "attack at dawn" in
  let bad = Bytes.of_string ct in
  Bytes.set bad (Bytes.length bad - 1) '\xff';
  (match Crypto.Block_mode.cbc_decrypt cbc_key ~iv (Bytes.to_string bad) with
  | Ok pt when pt = "attack at dawn" -> Alcotest.fail "tampering unnoticed"
  | Ok _ | Error _ -> ());
  match Crypto.Block_mode.cbc_decrypt cbc_key ~iv "short" with
  | Ok _ -> Alcotest.fail "accepted non-aligned ciphertext"
  | Error _ -> ()

let test_ctr_roundtrip () =
  let msg = "counter mode keystream exercise, more than one block long" in
  let ct = Crypto.Block_mode.ctr_encrypt cbc_key ~nonce:"nonce!" msg in
  Alcotest.(check int) "length preserved" (String.length msg) (String.length ct);
  Alcotest.(check bool) "actually encrypted" false (String.equal ct msg);
  Alcotest.(check string) "roundtrip" msg (Crypto.Block_mode.ctr_decrypt cbc_key ~nonce:"nonce!" ct)

(* --- Bignum ---------------------------------------------------------------- *)

module B = Crypto.Bignum

let bn = B.of_decimal

let test_bignum_basics () =
  Alcotest.(check string) "decimal roundtrip" "123456789012345678901234567890"
    (B.to_decimal (bn "123456789012345678901234567890"));
  Alcotest.(check int) "to_int" 123456 (B.to_int_exn (B.of_int 123456));
  Alcotest.(check bool) "zero" true (B.is_zero B.zero);
  Alcotest.(check int) "num_bits 255" 8 (B.num_bits (B.of_int 255));
  Alcotest.(check int) "num_bits 256" 9 (B.num_bits (B.of_int 256));
  let a = bn "340282366920938463463374607431768211456" (* 2^128 *) in
  Alcotest.(check int) "num_bits 2^128" 129 (B.num_bits a);
  Alcotest.(check string) "mul" "340282366920938463426481119284349108225"
    (B.to_decimal (B.mul (bn "18446744073709551615") (bn "18446744073709551615")))

let test_bignum_divmod () =
  let a = bn "123456789123456789123456789" and b = bn "987654321987" in
  let q, r = B.divmod a b in
  Alcotest.(check string) "recompose" (B.to_decimal a)
    (B.to_decimal (B.add (B.mul q b) r));
  Alcotest.(check bool) "r < b" true (B.compare r b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (B.divmod a B.zero))

(* Algorithm D's branches, each on inputs that reach it: short division
   by one limb, divisors whose top limb needs no normalisation shift
   (2^25, the smallest such, and 2^26 - 1, the largest) or the widest
   one (top limb 1, shifted 25 bits), a dividend shorter than or equal to the
   divisor, a two-limb estimate that needs its correction against the
   next limb, and the add-back after a one-too-large estimate. The last
   three literals were found by search over byte-patterned operands,
   with a counter on each branch. *)
let test_bignum_divmod_branches () =
  let check_qr name a b ~q ~r =
    let q', r' = B.divmod a b in
    Alcotest.(check string) (name ^ ": q") (B.to_decimal q) (B.to_decimal q');
    Alcotest.(check string) (name ^ ": r") (B.to_decimal r) (B.to_decimal r')
  in
  (* Operands built as a = q*b + r, so the answer is known. *)
  let built name b q r =
    if B.compare r b >= 0 then invalid_arg "built: r >= b";
    check_qr name (B.add (B.mul q b) r) b ~q ~r
  in
  let pow2 k = B.shift_left B.one k in
  let q_big = B.sub_int (pow2 200) 12345 in
  built "one-limb divisor 7" (B.of_int 7) q_big (B.of_int 6);
  built "one-limb divisor 2^26-1" (B.of_int 0x3ffffff) q_big (B.of_int 0x3fffffe);
  built "one-limb divisor, zero remainder" (B.of_int 10) q_big B.zero;
  let top_1 = B.add_int (pow2 26) 3 in
  (* two limbs, top limb 1 *)
  built "top limb 1" top_1 q_big (B.sub_int top_1 1);
  let top_2_25 = B.add_int (pow2 51) 1 in
  (* two limbs, top limb 2^25 *)
  built "top limb 2^25" top_2_25 q_big (B.sub_int top_2_25 1);
  built "top limb 2^25, short quotient" top_2_25 (B.of_int 3) (B.of_int 5);
  let top_max = B.add_int (B.shift_left (B.of_int 0x3ffffff) 52) 5 in
  (* three limbs, top limb 2^26 - 1: no normalisation shift *)
  built "top limb 2^26-1" top_max q_big (B.sub_int top_max 1);
  built "top limb 2^26-1, quotient 2^26-1" top_max (B.of_int 0x3ffffff) (B.of_int 77);
  let b = bn "987654321987654321987654321" in
  check_qr "a shorter than b" (B.of_int 5) b ~q:B.zero ~r:(B.of_int 5);
  check_qr "a = b" b b ~q:B.one ~r:B.zero;
  check_qr "a = b - 1" (B.sub_int b 1) b ~q:B.zero ~r:(B.sub_int b 1);
  check_qr "qhat corrected against the next limb" (B.of_hex "ffffffff00ff00")
    (B.of_hex "ff0000ffff") ~q:(B.of_hex "010100") ~r:(B.of_hex "fefe020000");
  (* Here the two-limb estimate is two too large: one add-back alone
     would leave a wrong quotient limb. *)
  check_qr "qhat two too large" (B.of_hex "807f017f8001007f") (B.of_hex "80ff007f")
    ~q:(B.of_hex "ff01fc0d") ~r:(B.of_hex "6d11f60c");
  check_qr "add-back" (B.of_hex "ffff00ffff0000ff00") (B.of_hex "ff0000ff000000ff")
    ~q:(B.of_hex "0100") ~r:(B.of_hex "ff0000ff00000000")

(* Decoding: the empty string is zero, leading zero bytes add nothing,
   and every length 1-80 (limb boundaries every 26 bits) round-trips
   through [to_bytes_be ~len], random and all-ones bytes alike. *)
let test_bignum_of_bytes_edges () =
  Alcotest.(check bool) "empty is zero" true (B.is_zero (B.of_bytes_be ""));
  Alcotest.(check bool) "zero bytes are zero" true (B.is_zero (B.of_bytes_be "\x00\x00\x00\x00"));
  Alcotest.(check string) "leading zero bytes" "258"
    (B.to_decimal (B.of_bytes_be "\x00\x00\x00\x01\x02"));
  let rng = Crypto.Rng.create ~seed:"bignum-of-bytes" in
  for len = 1 to 80 do
    List.iter
      (fun s ->
        Alcotest.(check string)
          (Printf.sprintf "%d bytes roundtrip" len)
          (Wire.Hex.encode s)
          (Wire.Hex.encode (B.to_bytes_be ~len (B.of_bytes_be s))))
      [ Crypto.Rng.generate rng len; String.make len '\xff'; "\x00" ^ Crypto.Rng.generate rng (len - 1) ]
  done

let test_bignum_pow_mod () =
  (* 5^3 mod 13 = 8; also a Fermat check: a^(p-1) = 1 mod p. *)
  Alcotest.(check int) "5^3 mod 13" 8 (B.to_int_exn (B.pow_mod (B.of_int 5) (B.of_int 3) (B.of_int 13)));
  let p = bn "115792089237316195423570985008687907853269984665640564039457584007913129639747" in
  (* Not necessarily prime; use a known prime instead: 2^127 - 1. *)
  ignore p;
  let m127 = B.sub_int (B.shift_left B.one 127) 1 in
  let a = bn "12345678901234567890" in
  Alcotest.(check string) "fermat 2^127-1" "1"
    (B.to_decimal (B.pow_mod a (B.sub_int m127 1) m127));
  (* Even modulus path. *)
  Alcotest.(check int) "3^4 mod 10" 1 (B.to_int_exn (B.pow_mod (B.of_int 3) (B.of_int 4) (B.of_int 10)))

let test_bignum_mod_inverse () =
  let p = B.of_int 101 in
  for a = 1 to 100 do
    let inv = B.mod_inverse_prime (B.of_int a) p in
    Alcotest.(check int) (Printf.sprintf "inv %d" a) 1
      (B.to_int_exn (B.rem (B.mul (B.of_int a) inv) p))
  done

let test_bignum_bytes () =
  let v = bn "65280" in
  Alcotest.(check string) "to_bytes_be" "\x00\xff\x00" (B.to_bytes_be ~len:3 v);
  Alcotest.(check string) "of_bytes_be inverse" (B.to_decimal v)
    (B.to_decimal (B.of_bytes_be "\xff\x00"));
  Alcotest.check_raises "too wide" (Invalid_argument "Bignum.to_bytes_be: value too wide")
    (fun () -> ignore (B.to_bytes_be ~len:1 v))

let test_bignum_to_int_boundary () =
  (* max_int itself is representable; the first value past it is not. *)
  let maxi = B.sub_int (B.shift_left B.one 62) 1 in
  (* 2^62 - 1 = max_int on 64-bit OCaml *)
  Alcotest.(check int) "native max_int" max_int ((1 lsl 62) - 1);
  Alcotest.(check (option int)) "max_int" (Some max_int) (B.to_int_opt maxi);
  Alcotest.(check (option int)) "max_int - 1" (Some (max_int - 1)) (B.to_int_opt (B.sub_int maxi 1));
  Alcotest.(check (option int)) "max_int + 1" None (B.to_int_opt (B.add_int maxi 1));
  Alcotest.(check (option int)) "2^62" None (B.to_int_opt (B.shift_left B.one 62));
  Alcotest.(check (option int)) "2^100" None (B.to_int_opt (B.shift_left B.one 100));
  (* Values whose top limb alone passes but whose shifted total overflows. *)
  Alcotest.(check (option int)) "2^61" (Some (1 lsl 61)) (B.to_int_opt (B.shift_left B.one 61));
  Alcotest.(check (option int)) "zero" (Some 0) (B.to_int_opt B.zero)

let test_pow_mod_edge_exponents () =
  let m = B.sub_int (B.shift_left B.one 127) 1 in
  let ctx = B.mont_of_modulus m in
  let a = bn "987654321234567898765432123456789" in
  let check_e label e =
    Alcotest.(check string) label
      (B.to_decimal (B.Reference.pow_mod_ctx ctx a e))
      (B.to_decimal (B.pow_mod_ctx ctx a e))
  in
  check_e "e = 0" B.zero;
  check_e "e = 1" B.one;
  check_e "e = 2" B.two;
  check_e "e = m - 1" (B.sub_int m 1);
  (* Long zero runs: a window walker must not mis-skip them. *)
  check_e "e = 2^96" (B.shift_left B.one 96);
  check_e "e = 2^96 + 1" (B.add_int (B.shift_left B.one 96) 1);
  check_e "e = 2^126 + 2^5" (B.add (B.shift_left B.one 126) (B.of_int 32))

let test_pow_mod_native_word () =
  (* Moduli around the native-word fast-path cutoff (31 bits) agree with
     the seed reference through both entry points, odd and even. *)
  let rng = Crypto.Rng.create ~seed:"native-pow" in
  let moduli =
    [
      B.of_int 3;
      B.of_int 255;
      B.of_int 0x40000001;
      B.of_int 0x7ffffffe;
      B.of_int 0x7fffffff;
      (* Just past the cutoff: still the Montgomery path. *)
      B.add_int (B.shift_left B.one 31) 1;
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 10 do
        let a = Crypto.Rng.bignum_below rng (B.shift_left B.one 40) in
        let e = Crypto.Rng.bignum_below rng (B.shift_left B.one 40) in
        Alcotest.(check string)
          (Printf.sprintf "m = %s" (B.to_decimal m))
          (B.to_decimal (B.Reference.pow_mod a e m))
          (B.to_decimal (B.pow_mod a e m));
        if not (B.is_even m) then
          let ctx = B.mont_of_modulus m in
          Alcotest.(check string)
            (Printf.sprintf "ctx m = %s" (B.to_decimal m))
            (B.to_decimal (B.Reference.pow_mod_ctx ctx a e))
            (B.to_decimal (B.pow_mod_ctx ctx a e))
      done)
    moduli

let test_pow_mod_fixed_base () =
  let m = B.sub_int (B.shift_left B.one 127) 1 in
  let ctx = B.mont_of_modulus m in
  let g = B.of_int 4 in
  let fb = B.fixed_base ctx g ~max_bits:64 in
  let check_e label e =
    Alcotest.(check string) label
      (B.to_decimal (B.pow_mod_ctx ctx g e))
      (B.to_decimal (B.pow_mod_fixed fb e))
  in
  check_e "e = 0" B.zero;
  check_e "e = 1" B.one;
  check_e "e = 2^63 + 17" (B.add_int (B.shift_left B.one 63) 17);
  (* Wider than the table: falls back to the generic path. *)
  check_e "e = 2^90 + 3" (B.add_int (B.shift_left B.one 90) 3);
  (* The cache returns the same table for the same (base, geometry). *)
  let fb' = B.fixed_base ctx g ~max_bits:64 in
  check_e "cached table" (B.of_int 123456789);
  ignore fb'

(* qcheck generators: random bignums via decimal strings of bounded size. *)
let gen_bignum =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let* digits = string_size ~gen:(char_range '0' '9') (return n) in
    return (B.of_decimal digits))

let prop_add_sub =
  QCheck2.Test.make ~name:"bignum add/sub roundtrip" ~count:500
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) -> B.equal a (B.sub (B.add a b) b))

let prop_mul_comm =
  QCheck2.Test.make ~name:"bignum mul commutative" ~count:300
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) -> B.equal (B.mul a b) (B.mul b a))

let prop_mul_distrib =
  QCheck2.Test.make ~name:"bignum mul distributes over add" ~count:300
    QCheck2.Gen.(triple gen_bignum gen_bignum gen_bignum)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod =
  QCheck2.Test.make ~name:"bignum divmod invariant" ~count:500
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      if B.is_zero b then QCheck2.assume_fail ()
      else
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_bytes_roundtrip =
  QCheck2.Test.make ~name:"bignum bytes roundtrip" ~count:300 gen_bignum (fun a ->
      B.equal a (B.of_bytes_be (B.to_bytes_be a)))

let prop_shift =
  QCheck2.Test.make ~name:"bignum shift left/right" ~count:300
    QCheck2.Gen.(pair gen_bignum (int_range 0 100))
    (fun (a, k) -> B.equal a (B.shift_right (B.shift_left a k) k))

let prop_pow_mod_matches_naive =
  QCheck2.Test.make ~name:"pow_mod matches naive small cases" ~count:200
    QCheck2.Gen.(triple (int_range 0 50) (int_range 0 12) (int_range 3 1001))
    (fun (a, e, m) ->
      let m = if m mod 2 = 0 then m + 1 else m in
      let rec naive acc k = if k = 0 then acc else naive (acc * a mod m) (k - 1) in
      B.to_int_exn (B.pow_mod (B.of_int a) (B.of_int e) (B.of_int m)) = naive 1 e)

(* The windowed Montgomery exponentiation agrees with the retained seed-era
   square-and-multiply kernel on random (a, e, m) with odd m. *)
let prop_pow_mod_matches_reference =
  QCheck2.Test.make ~name:"windowed pow_mod matches seed reference" ~count:150
    QCheck2.Gen.(triple gen_bignum gen_bignum gen_bignum)
    (fun (a, e, m) ->
      let m = B.add_int (if B.is_even m then B.add_int m 1 else m) 2 in
      (* odd, >= 3 *)
      B.equal (B.pow_mod a e m) (B.Reference.pow_mod a e m))

(* Montgomery field ops agree with direct modular arithmetic. *)
let prop_field_ops =
  QCheck2.Test.make ~name:"field ops match modular arithmetic" ~count:200
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      let p = B.sub_int (B.shift_left B.one 127) 1 in
      let ctx = B.Field.create p in
      let fa = B.Field.of_bignum ctx a and fb = B.Field.of_bignum ctx b in
      let via_field op = B.Field.to_bignum ctx op in
      B.equal (via_field (B.Field.mul ctx fa fb)) (B.rem (B.mul a b) p)
      && B.equal (via_field (B.Field.add ctx fa fb)) (B.rem (B.add a b) p)
      && B.equal
           (via_field (B.Field.sub ctx fa fb))
           (let am = B.rem a p and bm = B.rem b p in
            if B.compare am bm >= 0 then B.sub am bm else B.sub (B.add am p) bm))

(* --- One-word field ---------------------------------------------------------- *)

module W = Crypto.Word_field

(* Odd primes from 24 to 61 bits, drawn once from a fixed Rng, plus the
   Mersenne prime 2^61 - 1 at the top of the accepted range. *)
let word_primes =
  let rng = Crypto.Rng.create ~seed:"word-field-primes" in
  let rec prime_from n = if Crypto.Dh.is_probably_prime n then n else prime_from (B.add_int n 2) in
  B.sub_int (B.shift_left B.one 61) 1
  :: List.map
       (fun bits ->
         let top = B.shift_left B.one (bits - 1) in
         let n = B.add top (Crypto.Rng.bignum_below rng top) in
         prime_from (if B.is_even n then B.add_int n 1 else n))
       [ 24; 25; 30; 31; 32; 33; 40; 47; 52; 53; 58; 60; 61; 61 ]

let gen_word_case =
  QCheck2.Gen.(
    let* p = oneofl word_primes in
    let operand =
      oneof
        [
          oneofl [ B.zero; B.one; B.sub_int p 2; B.sub_int p 1 ];
          map (fun s -> B.rem (B.of_bytes_be s) p) (string_size ~gen:char (return 8));
        ]
    in
    triple (return p) operand operand)

(* Every op agrees with Bignum arithmetic mod p, and every residue it
   returns is canonical (in [0, p)), which equality tests rely on. *)
let word_case_agrees (p, a, b) =
  let f = W.create p in
  let pi = B.to_int_exn p in
  let wa = W.of_bignum f a and wb = W.of_bignum f b in
  let agrees w expect = 0 <= w && w < pi && B.equal (W.to_bignum f w) (B.rem expect p) in
  agrees wa a && agrees wb b
  && agrees (W.mul f wa wb) (B.mul a b)
  && agrees (W.sqr f wa) (B.mul a a)
  && agrees (W.add f wa wb) (B.add a b)
  && agrees (W.sub f wa wb) (B.sub (B.add a p) b)
  && agrees (W.neg f wa) (B.sub p a)
  && agrees (W.mul_small f wa 8) (B.mul_int a 8)
  && agrees (W.mul_small f wa 3) (B.mul_int a 3)
  && agrees (W.one f) B.one
  && (B.is_zero a || agrees (W.inv f wa) (B.mod_inverse_prime a p))

let prop_word_field_matches_bignum =
  QCheck2.Test.make ~name:"word field matches Bignum" ~count:400 gen_word_case word_case_agrees

let test_word_field_bounds () =
  List.iter
    (fun p ->
      Alcotest.check_raises (B.to_hex p)
        (Invalid_argument "Word_field.create: modulus must be odd, at least 3 and below 2^61")
        (fun () -> ignore (W.create p)))
    [ B.shift_left B.one 61; B.add_int (B.shift_left B.one 61) 1; B.of_int 1000; B.one ];
  let f = W.create (B.of_int 1_000_003) in
  Alcotest.check_raises "inverse of zero" (Invalid_argument "Word_field.inv: zero") (fun () ->
      ignore (W.inv f 0))

(* --- Rng -------------------------------------------------------------------
   The project's deterministic random bit generator; its tests keep the
   "drbg" group name. *)

module R = Crypto.Rng

let test_drbg_determinism () =
  let a = R.create ~seed:"fixed" and b = R.create ~seed:"fixed" in
  Alcotest.(check string) "same seed, same stream" (R.generate a 64) (R.generate b 64);
  let c = R.create ~seed:"other" in
  Alcotest.(check bool) "different seed, different stream" false
    (String.equal (R.generate b 64) (R.generate c 64))

let test_drbg_fork () =
  let parent1 = R.create ~seed:"p" in
  let parent2 = R.create ~seed:"p" in
  ignore (R.generate parent2 100);
  let c1 = R.fork parent1 ~label:"a" in
  let c2 = R.fork parent2 ~label:"a" in
  Alcotest.(check string) "same key and label, same child, whatever was drawn"
    (R.generate c1 32) (R.generate c2 32);
  let d1 = R.fork parent1 ~label:"x" in
  let d2 = R.fork parent1 ~label:"y" in
  Alcotest.(check bool) "distinct labels diverge" false
    (String.equal (R.generate d1 32) (R.generate d2 32));
  Alcotest.(check bool) "a child is not its parent" false
    (String.equal (R.generate (R.create ~seed:"p") 32) (R.generate (R.fork (R.create ~seed:"p") ~label:"") 32))

let test_drbg_fork_leaves_parent () =
  let plain = R.create ~seed:"parent" and forking = R.create ~seed:"parent" in
  let a = R.generate plain 13 and b = R.generate forking 13 in
  Alcotest.(check string) "prefix" a b;
  List.iter (fun label -> ignore (R.generate (R.fork forking ~label) 40)) [ "one"; "two"; "three" ];
  Alcotest.(check string) "forks consume nothing" (R.generate plain 77) (R.generate forking 77);
  Alcotest.(check int) "word draws too" (R.int_below plain 1_000_003) (R.int_below forking 1_000_003)

let test_drbg_fork_repeated_label () =
  let t = R.create ~seed:"guard" in
  ignore (R.fork t ~label:"child");
  ignore (R.fork t ~label:"other");
  Alcotest.check_raises "second fork of one label"
    (Invalid_argument "Rng.fork: label \"child\" forked twice") (fun () ->
      ignore (R.fork t ~label:"child"));
  (* The guard is per parent: another parent may use the label. *)
  ignore (R.fork (R.create ~seed:"guard") ~label:"child");
  (* Past a handful of labels the parent keeps them in a table. *)
  let many = R.create ~seed:"many" in
  for i = 0 to 40 do
    ignore (R.fork many ~label:(string_of_int i))
  done;
  List.iter
    (fun label ->
      Alcotest.check_raises ("repeat of " ^ label)
        (Invalid_argument (Printf.sprintf "Rng.fork: label %S forked twice" label)) (fun () ->
          ignore (R.fork many ~label)))
    [ "0"; "8"; "9"; "40" ]

(* Fork and seed inputs past two blocks (119 bytes) take the streaming
   hash; the key is the same function of the input either way. *)
let test_drbg_long_label () =
  let long = String.init 300 (fun i -> Char.chr (32 + (i mod 90))) in
  let a = R.fork (R.create ~seed:"long") ~label:long in
  let b = R.fork (R.create ~seed:"long") ~label:long in
  Alcotest.(check string) "long label, same child" (R.generate a 50) (R.generate b 50);
  let c = R.fork (R.create ~seed:"long") ~label:(String.sub long 0 299) in
  Alcotest.(check bool) "one byte shorter diverges" false (String.equal (R.generate b 50) (R.generate c 50));
  Alcotest.(check string) "long seed"
    (R.generate (R.create ~seed:long) 40) (R.generate (R.create ~seed:long) 40);
  (* 22/23 and 86/87 bytes sit either side of the one- and two-block
     limits for a fork (32-byte key, separator, label). *)
  List.iter
    (fun n ->
      let label = String.make n 'L' in
      Alcotest.(check string) (Printf.sprintf "%d-byte label" n)
        (R.generate (R.fork (R.create ~seed:"edge") ~label) 32)
        (R.generate (R.fork (R.create ~seed:"edge") ~label) 32))
    [ 22; 23; 86; 87 ]

let test_drbg_generate_into () =
  (* generate_into is stream-identical to generate: same bytes out, same
     state advance, for lengths on both sides of the 32-byte block. *)
  let a = R.create ~seed:"gi" in
  let b = R.create ~seed:"gi" in
  List.iter
    (fun n ->
      let s = R.generate a n in
      let buf = Bytes.make (n + 7) 'Z' in
      R.generate_into b buf ~pos:3 ~len:n;
      Alcotest.(check string) (Printf.sprintf "chunk of %d" n) s (Bytes.sub_string buf 3 n);
      Alcotest.(check string) "prefix untouched" "ZZZ" (Bytes.sub_string buf 0 3);
      Alcotest.(check string) "suffix untouched" "ZZZZ" (Bytes.sub_string buf (3 + n) 4))
    [ 1; 31; 32; 33; 0; 64; 100 ];
  Alcotest.(check bool) "states still aligned" true (R.state a = R.state b);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Rng.generate_into: range out of bounds") (fun () ->
      R.generate_into a (Bytes.create 4) ~pos:2 ~len:3)

(* The draw rule: byte strings run on across blocks, and a word that does
   not fit in what is left of a block is the next block's first 8 bytes. *)
let test_drbg_draw_rule () =
  let blocks = R.generate (R.create ~seed:"rule") 96 in
  let t = R.create ~seed:"rule" in
  Alcotest.(check string) "bytes straddle blocks" (String.sub blocks 0 30) (R.generate t 30);
  Alcotest.(check int) "byte 30" (Char.code blocks.[30]) (R.byte t);
  let word = Int64.to_int (String.get_int64_be blocks 32) land max_int in
  Alcotest.(check int) "a word skips the last byte" (word land ((1 lsl 40) - 1)) (R.int_below t (1 lsl 40));
  Alcotest.(check string) "then bytes go on after it" (String.sub blocks 40 20) (R.generate t 20);
  Alcotest.(check bool) "state" true (R.state t = { R.key = (R.state t).R.key; counter = 2; offset = 28 })

(* The stream over a fixed script that reaches every entry point, pinned
   to one digest. Any change to the generator or the hash layers below it
   that moves a single output byte fails here. *)
let test_drbg_stream_pinned () =
  let out = Buffer.create 1024 in
  let add s = Buffer.add_string out s in
  let rng = R.create ~seed:"rng-pin" in
  List.iter (fun n -> add (R.generate rng n)) [ 0; 1; 31; 32; 33; 100 ];
  add (Printf.sprintf "byte=%d;" (R.byte rng));
  add (Printf.sprintf "int=%d;" (R.int_below rng 1_000_003));
  add (Printf.sprintf "range=%d;" (R.int_range rng (-5) 5));
  add (Printf.sprintf "float=%h;" (R.float01 rng));
  add (Printf.sprintf "bool=%b;" (R.bool rng ~p:0.5));
  add (Printf.sprintf "exp=%h;" (R.exponential rng ~mean:3.0));
  add (R.pick rng [| "a"; "b"; "c" |] ^ R.pick_list rng [ "x"; "y" ] ^ R.weighted rng [ (0.5, "u"); (0.5, "v") ]);
  let arr = Array.init 10 Fun.id in
  R.shuffle rng arr;
  Array.iter (fun i -> add (string_of_int i)) arr;
  add (B.to_decimal (R.bignum_below rng (B.of_decimal "340282366920938463463374607431768211507")));
  add (B.to_decimal (R.bignum_in_group rng (B.of_int 1_000_000_007)));
  let child = R.fork rng ~label:"child" in
  add (R.generate child 48);
  add (R.generate (R.fork rng ~label:(String.make 80 'l')) 16);
  let st = R.state rng in
  add (R.state_to_string st);
  let resumed = R.restore ~state:st in
  add (R.generate resumed 65);
  add (R.generate rng 65);
  check_hex "stream digest" "992304a32737802a7301194978e76d65f8c1dba4ba9ae307c7308edb6ec1bb82"
    (Crypto.Sha256.digest (Buffer.contents out))

(* A random script over the generator's entry points, cut at a random
   point by [restore (state t)], must go on byte for byte as if never cut:
   the snapshot is the whole stream position. *)
type drbg_op =
  | Generate of int
  | Byte
  | Int_below of int
  | Float01
  | Bignum_below
  | Fork of string

let drbg_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Generate n) (int_range 0 100);
        pure Byte;
        map (fun n -> Int_below n) (int_range 1 1_000_000);
        pure Float01;
        pure Bignum_below;
        map (fun s -> Fork s) (string_size ~gen:printable (int_range 0 40));
      ])

let print_drbg_op = function
  | Generate n -> Printf.sprintf "generate %d" n
  | Byte -> "byte"
  | Int_below n -> Printf.sprintf "int_below %d" n
  | Float01 -> "float01"
  | Bignum_below -> "bignum_below"
  | Fork l -> Printf.sprintf "fork %S" l

(* A fork's label carries the op's index: one parent never forks a label
   twice. *)
let run_drbg_op t i op =
  match op with
  | Generate n -> R.generate t n
  | Byte -> string_of_int (R.byte t)
  | Int_below n -> string_of_int (R.int_below t n)
  | Float01 -> Printf.sprintf "%h" (R.float01 t)
  | Bignum_below -> B.to_decimal (R.bignum_below t (B.of_decimal "340282366920938463463374607431768211507"))
  | Fork label -> R.generate (R.fork t ~label:(Printf.sprintf "%d:%s" i label)) 40

let prop_drbg_restore_continues =
  QCheck2.Test.make ~name:"restore (state t) continues the stream" ~count:200
    ~print:QCheck2.Print.(pair (list print_drbg_op) int)
    QCheck2.Gen.(pair (list_size (int_range 1 25) drbg_op_gen) (int_range 0 25))
    (fun (ops, cut) ->
      let whole = R.create ~seed:"drbg-script" in
      let straight = List.mapi (run_drbg_op whole) ops in
      let t = ref (R.create ~seed:"drbg-script") in
      let resumed =
        List.mapi
          (fun i op ->
            if i = cut then t := R.restore ~state:(R.state !t);
            run_drbg_op !t i op)
          ops
      in
      straight = resumed && R.state whole = R.state !t)

let prop_drbg_int_below =
  QCheck2.Test.make ~name:"int_below stays in range" ~count:300
    QCheck2.Gen.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, salt) ->
      let rng = R.create ~seed:(string_of_int salt) in
      let v = R.int_below rng bound in
      v >= 0 && v < bound)

let test_drbg_weighted () =
  let rng = R.create ~seed:"weighted" in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = R.weighted rng [ (0.7, "a"); (0.2, "b"); (0.1, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "a dominates" true (get "a" > get "b" && get "b" > get "c");
  Alcotest.(check bool) "roughly calibrated" true
    (abs (get "a" - 2100) < 300 && abs (get "c" - 300) < 150)

(* --- PRF -------------------------------------------------------------------- *)

let test_prf_shapes () =
  let ms =
    Crypto.Prf.master_secret ~pre_master:(String.make 48 'p')
      ~client_random:(String.make 32 'c') ~server_random:(String.make 32 's')
  in
  Alcotest.(check int) "master secret is 48 bytes" 48 (String.length ms);
  let kb = Crypto.Prf.key_block ~master:ms ~client_random:"c" ~server_random:"s" 104 in
  Alcotest.(check int) "key block length honored" 104 (String.length kb);
  let fin = Crypto.Prf.client_finished ~master:ms ~handshake_hash:(String.make 32 'h') in
  Alcotest.(check int) "verify_data is 12 bytes" 12 (String.length fin);
  Alcotest.(check bool) "client and server finished differ" false
    (String.equal fin (Crypto.Prf.server_finished ~master:ms ~handshake_hash:(String.make 32 'h')))

(* --- DH --------------------------------------------------------------------- *)

let test_primality () =
  let prime_cases = [ 2; 3; 5; 7; 97; 7919; 104729 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d prime" n) true
        (Crypto.Dh.is_probably_prime (B.of_int n)))
    prime_cases;
  let composite_cases = [ 1; 4; 100; 561 (* Carmichael *); 7917; 104731 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d composite" n) false
        (Crypto.Dh.is_probably_prime (B.of_int n)))
    composite_cases;
  (* 2^127 - 1 is a Mersenne prime. *)
  Alcotest.(check bool) "2^127-1 prime" true
    (Crypto.Dh.is_probably_prime (B.sub_int (B.shift_left B.one 127) 1))

let test_oakley2_structure () =
  let p = Crypto.Dh.group_p Crypto.Dh.oakley2 in
  Alcotest.(check int) "1024 bits" 1024 (B.num_bits p);
  Alcotest.(check bool) "p prime" true (Crypto.Dh.is_probably_prime ~rounds:8 p);
  (* Oakley groups are safe primes: (p-1)/2 is prime too. *)
  Alcotest.(check bool) "(p-1)/2 prime" true
    (Crypto.Dh.is_probably_prime ~rounds:8 (B.shift_right (B.sub_int p 1) 1))

let sim_group = Crypto.Dh.generate ~bits:64 ~seed:"test"

let test_generated_group () =
  let p = Crypto.Dh.group_p sim_group in
  let g = Crypto.Dh.group_g sim_group in
  Alcotest.(check bool) "p prime" true (Crypto.Dh.is_probably_prime p);
  let q = B.shift_right (B.sub_int p 1) 1 in
  Alcotest.(check bool) "safe prime" true (Crypto.Dh.is_probably_prime q);
  (* g = 4 generates the order-q subgroup: g^q = 1. *)
  Alcotest.(check bool) "g^q = 1" true (B.is_one (B.pow_mod g q p));
  Alcotest.(check bool) "g^2 <> 1" false (B.is_one (B.pow_mod g B.two p))

let test_dh_agreement () =
  let rng = Crypto.Rng.create ~seed:"dh-agree" in
  for i = 1 to 10 do
    let alice = Crypto.Dh.gen_keypair sim_group rng in
    let bob = Crypto.Dh.gen_keypair sim_group rng in
    let za =
      Crypto.Dh.shared_secret_exn alice ~peer_pub:(B.of_bytes_be (Crypto.Dh.public_bytes bob))
    in
    let zb =
      Crypto.Dh.shared_secret_exn bob ~peer_pub:(B.of_bytes_be (Crypto.Dh.public_bytes alice))
    in
    Alcotest.(check string) (Printf.sprintf "agreement %d" i) za zb
  done

let test_dh_rejects_degenerate () =
  let rng = Crypto.Rng.create ~seed:"dh-degenerate" in
  let kp = Crypto.Dh.gen_keypair sim_group rng in
  let p = Crypto.Dh.group_p sim_group in
  List.iter
    (fun (label, v) ->
      match Crypto.Dh.shared_secret kp ~peer_pub:v with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (label ^ " accepted"))
    [ ("zero", B.zero); ("one", B.one); ("p-1", B.sub_int p 1); ("p", p) ]

let test_dh_generate_race () =
  (* [Dh.generate] memoizes into a process-global cache; a parallel
     campaign's workers all derive the same weak groups from the world
     seed, so concurrent first calls must agree on one group object
     (LOGJAM realism: weak endpoints share their group) rather than
     racing the hashtable. Hammer several fresh (bits, seed) keys from
     four domains at once. *)
  let combos =
    Array.init 8 (fun i -> (24 + (8 * (i mod 4)), Printf.sprintf "race-seed-%d" (i / 4)))
  in
  let worker () =
    Array.map (fun (bits, seed) -> Crypto.Dh.generate ~bits ~seed) combos
  in
  let results =
    Array.init 4 (fun _ -> Domain.spawn worker) |> Array.map Domain.join
  in
  Array.iteri
    (fun j (bits, seed) ->
      Array.iteri
        (fun k r ->
          Alcotest.(check bool)
            (Printf.sprintf "worker %d shares group (%d bits, %s)" k bits seed)
            true
            (r.(j) == results.(0).(j)))
        results)
    combos;
  (* And the cached object is what a later caller sees. *)
  let bits, seed = combos.(0) in
  Alcotest.(check bool) "later call hits the cache" true
    (Crypto.Dh.generate ~bits ~seed == results.(0).(0))

let test_dh_oakley_agreement () =
  let rng = Crypto.Rng.create ~seed:"dh-oakley" in
  let alice = Crypto.Dh.gen_keypair Crypto.Dh.oakley2 rng in
  let bob = Crypto.Dh.gen_keypair Crypto.Dh.oakley2 rng in
  let za = Crypto.Dh.shared_secret_exn alice ~peer_pub:(B.of_bytes_be (Crypto.Dh.public_bytes bob)) in
  let zb = Crypto.Dh.shared_secret_exn bob ~peer_pub:(B.of_bytes_be (Crypto.Dh.public_bytes alice)) in
  Alcotest.(check string) "1024-bit agreement" za zb;
  Alcotest.(check int) "public width" 128 (String.length (Crypto.Dh.public_bytes alice))

(* --- EC --------------------------------------------------------------------- *)

module Ec = Crypto.Ec

let test_p256_structure () =
  Alcotest.(check bool) "G on curve" true (Ec.on_curve Ec.p256 (Ec.base_point Ec.p256));
  Alcotest.(check bool) "p prime" true
    (Crypto.Dh.is_probably_prime ~rounds:8 (Ec.curve_p Ec.p256));
  Alcotest.(check bool) "n prime" true
    (Crypto.Dh.is_probably_prime ~rounds:8 (Ec.curve_order Ec.p256));
  (match Ec.scalar_mult_base Ec.p256 (Ec.curve_order Ec.p256) with
  | Ec.Inf -> ()
  | Ec.Affine _ -> Alcotest.fail "n * G should be infinity");
  match Ec.scalar_mult_base Ec.p256 (B.sub_int (Ec.curve_order Ec.p256) 1) with
  | Ec.Inf -> Alcotest.fail "(n-1) * G should not be infinity"
  | Ec.Affine _ -> ()

let small_curve = Ec.generate_small ~bits:61 ~seed:"test"

let test_small_curve_structure () =
  let g = Ec.base_point small_curve in
  Alcotest.(check bool) "G on curve" true (Ec.on_curve small_curve g);
  Alcotest.(check bool) "order prime" true
    (Crypto.Dh.is_probably_prime (Ec.curve_order small_curve));
  (match Ec.scalar_mult_base small_curve (Ec.curve_order small_curve) with
  | Ec.Inf -> ()
  | Ec.Affine _ -> Alcotest.fail "q * G should be infinity");
  (* p = 4q - 1. *)
  Alcotest.(check bool) "p = 4q - 1" true
    (B.equal (Ec.curve_p small_curve)
       (B.sub_int (B.shift_left (Ec.curve_order small_curve) 2) 1))

let test_ec_group_laws () =
  let c = small_curve in
  let g = Ec.base_point c in
  let p2 = Ec.double c g in
  Alcotest.(check bool) "2G = G + G" true (Ec.add c g g = p2);
  let p3_a = Ec.add c p2 g in
  let p3_b = Ec.scalar_mult c (B.of_int 3) g in
  Alcotest.(check bool) "2G + G = 3G" true (p3_a = p3_b);
  (* Associativity sample: (2G + 3G) + 5G = 2G + (3G + 5G) = 10G. *)
  let p5 = Ec.scalar_mult c (B.of_int 5) g in
  let lhs = Ec.add c (Ec.add c p2 p3_a) p5 in
  let rhs = Ec.add c p2 (Ec.add c p3_a p5) in
  Alcotest.(check bool) "associativity" true (lhs = rhs);
  Alcotest.(check bool) "matches 10G" true (lhs = Ec.scalar_mult c (B.of_int 10) g);
  Alcotest.(check bool) "identity" true (Ec.add c g Ec.Inf = g)

let test_ec_neg () =
  List.iter
    (fun c ->
      let label = Ec.curve_name c in
      let g = Ec.base_point c in
      let ng = Ec.neg c g in
      Alcotest.(check bool) (label ^ ": neg G on curve") true (Ec.on_curve c ng);
      Alcotest.(check bool) (label ^ ": G + neg G = Inf") true (Ec.add c g ng = Ec.Inf);
      Alcotest.(check bool) (label ^ ": neg is an involution") true (Ec.neg c ng = g);
      Alcotest.(check bool) (label ^ ": neg Inf = Inf") true (Ec.neg c Ec.Inf = Ec.Inf);
      (* neg (kG) = (n - k) G *)
      let k = B.of_int 7 in
      let p = Ec.scalar_mult_base c k in
      Alcotest.(check bool) (label ^ ": neg 7G = (n-7)G") true
        (Ec.neg c p = Ec.scalar_mult_base c (B.sub (Ec.curve_order c) k)))
    [ small_curve; Ec.p256 ]

(* The 52-bit ECDHE curve the simulation runs on (cofactor 4). *)
let sim52 = (Tls.Config.sim_env ()).Tls.Config.ecdhe_curve

(* A point of order 4 on a cofactor-4 curve y^2 = x^3 + x: q·R for an
   on-curve R of order 4q, so that 2·(q·R) is (0, 0) rather than
   infinity. Square roots are z^((p+1)/4), as p = 3 mod 4. *)
let order4_point c =
  let p = Ec.curve_p c in
  let rec search x =
    let rhs = B.rem (B.add (B.pow_mod x (B.of_int 3) p) x) p in
    let y = B.pow_mod rhs (B.shift_right (B.add_int p 1) 2) p in
    let r = Ec.Affine (x, y) in
    if not (Ec.on_curve c r) then search (B.add_int x 1)
    else
      match Ec.Reference.scalar_mult c (Ec.curve_order c) r with
      | Ec.Affine _ as t when Ec.double c t <> Ec.Inf -> t
      | _ -> search (B.add_int x 1)
  in
  search (B.of_int 2)

let test_ec_scalar_mult_edge_cases () =
  let scalars_for n =
    [
      ("0", B.zero);
      ("1", B.one);
      ("2", B.two);
      ("n - 1", B.sub_int n 1);
      ("n", n);
      ("n + 1", B.add_int n 1);
      ("2^40 (long zero run)", B.shift_left B.one 40);
      ("2^40 + 1", B.add_int (B.shift_left B.one 40) 1);
      ("2n + 3", B.add_int (B.shift_left n 1) 3);
    ]
  in
  let c = small_curve in
  let g = Ec.base_point c in
  List.iter
    (fun (label, k) ->
      let expect = Ec.Reference.scalar_mult c k g in
      Alcotest.(check bool) ("scalar_mult " ^ label) true (Ec.scalar_mult c k g = expect);
      Alcotest.(check bool) ("scalar_mult_base " ^ label) true (Ec.scalar_mult_base c k = expect))
    (scalars_for (Ec.curve_order c));
  (* Points outside the order-q subgroup: their wNAF tables and doublings
     reach infinity, which no base-point input does. *)
  let c = sim52 in
  let t2 = Ec.Affine (B.zero, B.zero) in
  let t4 = order4_point c in
  let g = Ec.base_point c in
  List.iter
    (fun (plabel, pt) ->
      Alcotest.(check bool) (plabel ^ " on curve") true (Ec.on_curve c pt);
      List.iter
        (fun (label, k) ->
          Alcotest.(check bool)
            (Printf.sprintf "scalar_mult %s on %s" label plabel)
            true
            (Ec.scalar_mult c k pt = Ec.Reference.scalar_mult c k pt))
        (scalars_for (Ec.curve_order c)))
    [ ("T = (0, 0)", t2); ("order-4 point", t4); ("G + T", Ec.add c g t2) ]

(* The ladders are checked on the 61-bit test curve and on the two curves
   the simulation runs on (default seed). *)
let ladder_curves =
  let env = Tls.Config.sim_env () in
  [ small_curve; env.Tls.Config.ecdhe_curve; env.Tls.Config.pki_curve ]

(* wNAF scalar_mult and the fixed-base comb agree with the retained seed-era
   double-and-add kernel on random scalars, including beyond the order
   (where the comb falls back to wNAF) and reduced below it. *)
let prop_scalar_mult_matches_reference =
  QCheck2.Test.make ~name:"wNAF/comb scalar_mult matches seed reference" ~count:60
    QCheck2.Gen.(pair gen_bignum (int_range 1 1000))
    (fun (k, kq) ->
      List.for_all
        (fun c ->
          let q = Ec.Reference.scalar_mult_base c (B.of_int kq) in
          let kn = B.rem k (Ec.curve_order c) in
          Ec.scalar_mult c k q = Ec.Reference.scalar_mult c k q
          && Ec.scalar_mult_base c k = Ec.Reference.scalar_mult_base c k
          && Ec.scalar_mult_base c kn = Ec.Reference.scalar_mult_base c kn)
        ladder_curves)

(* u1*G + u2*Q formed in Jacobian coordinates matches the affine composition. *)
let prop_scalar_mult_base_add =
  QCheck2.Test.make ~name:"scalar_mult_base_add matches add of parts" ~count:40
    QCheck2.Gen.(triple gen_bignum gen_bignum (int_range 2 1000))
    (fun (u1, u2, kq) ->
      List.for_all
        (fun c ->
          let q = Ec.Reference.scalar_mult_base c (B.of_int kq) in
          Ec.scalar_mult_base_add c u1 u2 q
          = Ec.add c (Ec.Reference.scalar_mult_base c u1) (Ec.Reference.scalar_mult c u2 q))
        ladder_curves)

let test_ec_agreement () =
  let rng = Crypto.Rng.create ~seed:"ec-agree" in
  for i = 1 to 10 do
    let alice = Ec.gen_keypair small_curve rng in
    let bob = Ec.gen_keypair small_curve rng in
    let pub_of kp =
      match Ec.point_of_bytes small_curve (Ec.public_bytes kp) with
      | Ok p -> p
      | Error e -> Alcotest.fail e
    in
    match
      (Ec.shared_secret alice ~peer_pub:(pub_of bob), Ec.shared_secret bob ~peer_pub:(pub_of alice))
    with
    | Ok za, Ok zb -> Alcotest.(check string) (Printf.sprintf "agreement %d" i) za zb
    | Error e, _ | _, Error e -> Alcotest.fail e
  done

(* A coordinate at or above p must not decode: (x + p, y) reduces to the
   same point as (x, y), so accepting it gives one public value two wire
   encodings. *)
let test_ec_rejects_noncanonical () =
  let c = (Tls.Config.sim_env ()).Tls.Config.ecdhe_curve in
  let p = Ec.curve_p c in
  let l = (B.num_bits p + 7) / 8 in
  let enc x y = "\x04" ^ B.to_bytes_be ~len:l x ^ B.to_bytes_be ~len:l y in
  match Ec.base_point c with
  | Ec.Inf -> Alcotest.fail "base point at infinity"
  | Ec.Affine (x, y) ->
      Alcotest.(check bool) "canonical G decodes" true (Ec.point_of_bytes c (enc x y) = Ok (Ec.base_point c));
      List.iter
        (fun (label, x, y) ->
          match Ec.point_of_bytes c (enc x y) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s accepted" label)
        [ ("x + p", B.add x p, y); ("y + p", x, B.add y p); ("x = p", p, y) ]

(* On a cofactor curve a point killed by the cofactor (h·Q = O) must not
   yield a secret: k·Q would take one of h values fixed by k mod h, and
   which of them (or infinity) leaks the key's low bits. The check must
   not run through the counted ladder. *)
let test_ec_rejects_small_order () =
  let c = sim52 in
  let t4 = order4_point c in
  let small = [ ("(0, 0)", Ec.Affine (B.zero, B.zero)); ("order-4", t4); ("-order-4", Ec.neg c t4) ] in
  let rng = Crypto.Rng.create ~seed:"ec-small-order" in
  let keys =
    List.map B.of_int [ 1; 2; 3; 4 ]
    @ List.init 8 (fun _ -> Crypto.Rng.bignum_in_group rng (Ec.curve_order c))
  in
  List.iter
    (fun (label, pt) ->
      (match Ec.point_of_bytes c (Ec.point_bytes c pt) with
      | Ok q -> Alcotest.(check bool) (label ^ " decodes to itself") true (q = pt)
      | Error e -> Alcotest.failf "%s does not decode: %s" label e);
      List.iter
        (fun k ->
          let kp = Ec.keypair_of_private c k in
          let before = Obs.Kernel.snapshot () in
          (match Ec.shared_secret kp ~peer_pub:pt with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "%s accepted for a private key = %d mod 4" label
                (B.to_int_exn (B.rem k (B.of_int 4))));
          let moved =
            List.filter (fun (_, d) -> d <> 0) (Obs.Kernel.diff ~before ~after:(Obs.Kernel.snapshot ()))
          in
          Alcotest.(check (list (pair string int))) (label ^ ": no kernel counted") [] moved)
        keys)
    small;
  (* A point of order q next to them still agrees. *)
  let alice = Ec.keypair_of_private c (B.of_int 3) in
  match Ec.shared_secret alice ~peer_pub:(Ec.base_point c) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_ec_size_limits () =
  Alcotest.check_raises "62-bit curve" (Invalid_argument "Ec.generate_small: bits out of range")
    (fun () -> ignore (Ec.generate_small ~bits:62 ~seed:"too-wide"));
  let unsupported =
    Invalid_argument "Ec.make_curve: field prime must be P-256's or an odd prime below 2^61"
  in
  List.iter
    (fun (label, p) ->
      Alcotest.check_raises label unsupported (fun () ->
          ignore
            (Ec.make_curve ~name:label ~p ~a:B.one ~b:B.zero ~gx:B.one ~gy:B.one ~n:B.two ~h:1)))
    [
      ("64-bit prime", B.sub_int (B.shift_left B.one 64) 59);
      ("2^61 + 1", B.add_int (B.shift_left B.one 61) 1);
      ("even modulus", B.of_int 1_000_000);
    ]

let test_ec_rejects_off_curve () =
  let c = small_curve in
  let bogus = Ec.Affine (B.of_int 12345, B.of_int 678) in
  if Ec.on_curve c bogus then ()
  else begin
    let rng = Crypto.Rng.create ~seed:"ec-reject" in
    let kp = Ec.gen_keypair c rng in
    (match Ec.shared_secret kp ~peer_pub:bogus with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "off-curve point accepted");
    match Ec.point_of_bytes c (Ec.point_bytes c bogus) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "off-curve encoding accepted"
  end

let test_p256_agreement () =
  let rng = Crypto.Rng.create ~seed:"p256-agree" in
  let alice = Ec.gen_keypair Ec.p256 rng in
  let bob = Ec.gen_keypair Ec.p256 rng in
  let pub kp =
    match Ec.point_of_bytes Ec.p256 (Ec.public_bytes kp) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match (Ec.shared_secret alice ~peer_pub:(pub bob), Ec.shared_secret bob ~peer_pub:(pub alice)) with
  | Ok za, Ok zb ->
      Alcotest.(check string) "p256 agreement" za zb;
      Alcotest.(check int) "x-coordinate width" 32 (String.length za)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- ECDSA ------------------------------------------------------------------- *)

let ecdsa_curve = Ec.generate_small ~bits:53 ~seed:"ecdsa-test"

let test_ecdsa_roundtrip () =
  let rng = Crypto.Rng.create ~seed:"ecdsa" in
  let kp = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
  let msg = "to be signed" in
  let sg = Crypto.Ecdsa.sign kp rng msg in
  Alcotest.(check bool) "verifies" true
    (Crypto.Ecdsa.verify ~curve:ecdsa_curve ~pub:(Crypto.Ecdsa.public_key kp) ~msg sg);
  Alcotest.(check bool) "wrong message rejected" false
    (Crypto.Ecdsa.verify ~curve:ecdsa_curve ~pub:(Crypto.Ecdsa.public_key kp) ~msg:"tampered" sg);
  (* Wrong key rejected. *)
  let other = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
  Alcotest.(check bool) "wrong key rejected" false
    (Crypto.Ecdsa.verify ~curve:ecdsa_curve ~pub:(Crypto.Ecdsa.public_key other) ~msg sg)

let test_ecdsa_signature_codec () =
  let rng = Crypto.Rng.create ~seed:"ecdsa-codec" in
  let kp = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
  let sg = Crypto.Ecdsa.sign kp rng "payload" in
  let bytes = Crypto.Ecdsa.signature_bytes ecdsa_curve sg in
  (match Crypto.Ecdsa.signature_of_bytes ecdsa_curve bytes with
  | Ok sg' ->
      Alcotest.(check bool) "decoded signature verifies" true
        (Crypto.Ecdsa.verify ~curve:ecdsa_curve ~pub:(Crypto.Ecdsa.public_key kp) ~msg:"payload" sg')
  | Error e -> Alcotest.fail e);
  match Crypto.Ecdsa.signature_of_bytes ecdsa_curve "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad length accepted"

let test_ecdsa_static_ecdh () =
  let rng = Crypto.Rng.create ~seed:"ecdsa-ecdh" in
  let a = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
  let b = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
  match
    ( Crypto.Ecdsa.ecdh a ~peer_pub:(Crypto.Ecdsa.public_key b),
      Crypto.Ecdsa.ecdh b ~peer_pub:(Crypto.Ecdsa.public_key a) )
  with
  | Ok za, Ok zb -> Alcotest.(check string) "static ecdh agreement" za zb
  | Error e, _ | _, Error e -> Alcotest.fail e

(* The static ECDH of the ECDH_ECDSA suites must refuse the same small-
   order points as [Ec.shared_secret], for odd and even keys alike (k·Q
   for Q = (0, 0) is Q or infinity by k's parity), and without a counted
   multiplication. [Ecdsa.gen_keypair] draws its key with
   [bignum_in_group], so a restored copy of the generator shows which key
   each pair holds. *)
let test_ecdsa_ecdh_rejects_small_order () =
  let c = ecdsa_curve in
  let t4 = order4_point c in
  let small = [ ("(0, 0)", Ec.Affine (B.zero, B.zero)); ("order-4", t4); ("-order-4", Ec.neg c t4) ] in
  let rng = Crypto.Rng.create ~seed:"ecdsa-small-order" in
  let keys =
    List.init 8 (fun _ ->
        let priv =
          Crypto.Rng.bignum_in_group (Crypto.Rng.restore ~state:(Crypto.Rng.state rng)) (Ec.curve_order c)
        in
        (B.to_int_exn (B.rem priv (B.of_int 4)), Crypto.Ecdsa.gen_keypair c rng))
  in
  Alcotest.(check (list int)) "odd and even keys" [ 0; 1 ]
    (List.sort_uniq compare (List.map (fun (r, _) -> r land 1) keys));
  List.iter
    (fun (label, pt) ->
      List.iter
        (fun (residue, kp) ->
          let before = Obs.Kernel.snapshot () in
          (match Crypto.Ecdsa.ecdh kp ~peer_pub:pt with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s accepted for a private key = %d mod 4" label residue);
          let moved =
            List.filter (fun (_, d) -> d <> 0) (Obs.Kernel.diff ~before ~after:(Obs.Kernel.snapshot ()))
          in
          Alcotest.(check (list (pair string int))) (label ^ ": no kernel counted") [] moved)
        keys)
    small

let prop_ecdsa_sign_verify =
  QCheck2.Test.make ~name:"ecdsa sign/verify" ~count:50
    QCheck2.Gen.(pair small_int (string_size (int_range 0 100)))
    (fun (salt, msg) ->
      let rng = Crypto.Rng.create ~seed:(Printf.sprintf "e-%d" salt) in
      let kp = Crypto.Ecdsa.gen_keypair ecdsa_curve rng in
      let sg = Crypto.Ecdsa.sign kp rng msg in
      Crypto.Ecdsa.verify ~curve:ecdsa_curve ~pub:(Crypto.Ecdsa.public_key kp) ~msg sg)

(* --- X25519 (RFC 7748) ------------------------------------------------------- *)

let test_x25519_vector () =
  let scalar = hex "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4" in
  let u = hex "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c" in
  check_hex "rfc7748 vector 1" "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    (Crypto.X25519.scalar_mult ~scalar ~u)

let test_x25519_dh_vectors () =
  (* Self-consistency: independently generated keypairs agree on the
     shared secret, and the base point behaves. *)
  Alcotest.(check int) "base point length" 32 (String.length Crypto.X25519.base_point);
  let rng = Crypto.Rng.create ~seed:"x25519" in
  let kp1 = Crypto.X25519.gen_keypair rng in
  let kp2 = Crypto.X25519.gen_keypair rng in
  match
    ( Crypto.X25519.shared_secret kp1 ~peer_pub:(Crypto.X25519.public_bytes kp2),
      Crypto.X25519.shared_secret kp2 ~peer_pub:(Crypto.X25519.public_bytes kp1) )
  with
  | Ok za, Ok zb -> Alcotest.(check string) "agreement" za zb
  | Error e, _ | _, Error e -> Alcotest.fail e

let prop_x25519_agreement =
  QCheck2.Test.make ~name:"x25519 agreement" ~count:20 QCheck2.Gen.small_int (fun salt ->
      let rng = Crypto.Rng.create ~seed:(Printf.sprintf "x-%d" salt) in
      let kp1 = Crypto.X25519.gen_keypair rng in
      let kp2 = Crypto.X25519.gen_keypair rng in
      match
        ( Crypto.X25519.shared_secret kp1 ~peer_pub:(Crypto.X25519.public_bytes kp2),
          Crypto.X25519.shared_secret kp2 ~peer_pub:(Crypto.X25519.public_bytes kp1) )
      with
      | Ok za, Ok zb -> String.equal za zb
      | _ -> false)

(* --- Suite -------------------------------------------------------------------- *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "crypto"
    [
      ( "hex",
        [ Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming;
          Alcotest.test_case "split points at every length" `Quick test_sha256_split_lengths;
          Alcotest.test_case "short tails at every length" `Quick test_sha256_short_tails;
          Alcotest.test_case "one million a" `Quick test_sha256_million_a;
          Alcotest.test_case "copy independence" `Quick test_sha256_copy;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "textbook at every length" `Quick test_hmac_textbook;
          Alcotest.test_case "constant-time equal" `Quick test_hmac_ct_equal;
        ] );
      ( "aes",
        [
          Alcotest.test_case "FIPS 197 vectors" `Quick test_aes_vectors;
          Alcotest.test_case "bad key" `Quick test_aes_bad_key;
        ] );
      ( "block-mode",
        [
          Alcotest.test_case "cbc roundtrip" `Quick test_cbc_roundtrip;
          Alcotest.test_case "cbc tamper" `Quick test_cbc_tamper;
          Alcotest.test_case "ctr roundtrip" `Quick test_ctr_roundtrip;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basics;
          Alcotest.test_case "divmod" `Quick test_bignum_divmod;
          Alcotest.test_case "divmod branches" `Quick test_bignum_divmod_branches;
          Alcotest.test_case "of_bytes_be edges" `Quick test_bignum_of_bytes_edges;
          Alcotest.test_case "pow_mod" `Quick test_bignum_pow_mod;
          Alcotest.test_case "mod inverse" `Quick test_bignum_mod_inverse;
          Alcotest.test_case "byte conversions" `Quick test_bignum_bytes;
          Alcotest.test_case "to_int boundary" `Quick test_bignum_to_int_boundary;
          Alcotest.test_case "pow_mod edge exponents" `Quick test_pow_mod_edge_exponents;
          Alcotest.test_case "pow_mod native word" `Quick test_pow_mod_native_word;
          Alcotest.test_case "fixed-base exponentiation" `Quick test_pow_mod_fixed_base;
        ] );
      qsuite "bignum-properties"
        [
          prop_add_sub;
          prop_mul_comm;
          prop_mul_distrib;
          prop_divmod;
          prop_bytes_roundtrip;
          prop_shift;
          prop_pow_mod_matches_naive;
          prop_pow_mod_matches_reference;
          prop_field_ops;
        ];
      ("word-field", [ Alcotest.test_case "bounds" `Quick test_word_field_bounds ]);
      qsuite "word-field-properties" [ prop_word_field_matches_bignum ];
      ( "drbg",
        [
          Alcotest.test_case "determinism" `Quick test_drbg_determinism;
          Alcotest.test_case "fork" `Quick test_drbg_fork;
          Alcotest.test_case "fork leaves the parent's stream" `Quick test_drbg_fork_leaves_parent;
          Alcotest.test_case "fork refuses a repeated label" `Quick test_drbg_fork_repeated_label;
          Alcotest.test_case "fork and seed past one block" `Quick test_drbg_long_label;
          Alcotest.test_case "generate_into" `Quick test_drbg_generate_into;
          Alcotest.test_case "draw rule" `Quick test_drbg_draw_rule;
          Alcotest.test_case "stream pinned" `Quick test_drbg_stream_pinned;
          Alcotest.test_case "weighted" `Quick test_drbg_weighted;
        ] );
      qsuite "drbg-properties" [ prop_drbg_int_below; prop_drbg_restore_continues ];
      ("prf", [ Alcotest.test_case "shapes" `Quick test_prf_shapes ]);
      ( "dh",
        [
          Alcotest.test_case "primality" `Quick test_primality;
          Alcotest.test_case "oakley2 structure" `Slow test_oakley2_structure;
          Alcotest.test_case "generated group" `Quick test_generated_group;
          Alcotest.test_case "agreement" `Quick test_dh_agreement;
          Alcotest.test_case "degenerate rejection" `Quick test_dh_rejects_degenerate;
          Alcotest.test_case "generate race" `Quick test_dh_generate_race;
          Alcotest.test_case "oakley2 agreement" `Slow test_dh_oakley_agreement;
        ] );
      ( "ec",
        [
          Alcotest.test_case "p256 structure" `Slow test_p256_structure;
          Alcotest.test_case "small curve structure" `Quick test_small_curve_structure;
          Alcotest.test_case "group laws" `Quick test_ec_group_laws;
          Alcotest.test_case "negation" `Quick test_ec_neg;
          Alcotest.test_case "scalar mult edge cases" `Quick test_ec_scalar_mult_edge_cases;
          Alcotest.test_case "agreement" `Quick test_ec_agreement;
          Alcotest.test_case "off-curve rejection" `Quick test_ec_rejects_off_curve;
          Alcotest.test_case "non-canonical rejection" `Quick test_ec_rejects_noncanonical;
          Alcotest.test_case "size limits" `Quick test_ec_size_limits;
          Alcotest.test_case "small-order rejection" `Quick test_ec_rejects_small_order;
          Alcotest.test_case "p256 agreement" `Slow test_p256_agreement;
        ] );
      qsuite "ec-properties" [ prop_scalar_mult_matches_reference; prop_scalar_mult_base_add ];
      ( "ecdsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_ecdsa_roundtrip;
          Alcotest.test_case "signature codec" `Quick test_ecdsa_signature_codec;
          Alcotest.test_case "static ecdh" `Quick test_ecdsa_static_ecdh;
          Alcotest.test_case "static ecdh small-order rejection" `Quick test_ecdsa_ecdh_rejects_small_order;
        ] );
      qsuite "ecdsa-properties" [ prop_ecdsa_sign_verify ];
      ( "x25519",
        [
          Alcotest.test_case "rfc7748 vector" `Quick test_x25519_vector;
          Alcotest.test_case "dh self-consistency" `Quick test_x25519_dh_vectors;
        ] );
      qsuite "x25519-properties" [ prop_x25519_agreement ];
    ]
