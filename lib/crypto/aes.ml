(* AES (FIPS 197) block cipher: 128/192/256-bit keys, encrypt and decrypt.

   The cipher runs on 32-bit column words held in native ints, with the
   classic T-tables: [te0.(x)] is the MixColumns column of S(x), and
   [te1]..[te3] are its byte rotations, so one round of SubBytes,
   ShiftRows and MixColumns on a column is four table lookups and four
   xors. Decryption uses the equivalent inverse cipher (FIPS 197 section
   5.3.5): the [td] tables do InvSubBytes and InvMixColumns the same way,
   over a second key schedule whose inner round keys have InvMixColumns
   applied. [of_key] builds both schedules once per key; a block then
   allocates nothing beyond its output.

   The S-box is computed from its definition (GF(2^8) inversion followed by
   the affine transform) rather than transcribed, and so are the tables.
   The cipher is checked against the FIPS 197 known-answer vectors in the
   test suite and against `openssl enc` in the OpenSSL oracle. *)

(* --- GF(2^8) arithmetic, reduction polynomial x^8+x^4+x^3+x+1 (0x11b) --- *)

let xtime b =
  let b' = b lsl 1 in
  if b' land 0x100 <> 0 then (b' lxor 0x1b) land 0xff else b'

let gf_mul a b =
  let acc = ref 0 in
  let a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc land 0xff

(* --- S-box and T-tables --------------------------------------------------- *)

let sbox, inv_sbox =
  let gf_inv x =
    if x = 0 then 0
    else begin
      (* Brute-force inverse: 255 candidates, done once at module init. *)
      let rec find y = if gf_mul x y = 1 then y else find (y + 1) in
      find 1
    end
  in
  let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
  let s = Array.make 256 0 in
  let si = Array.make 256 0 in
  for x = 0 to 255 do
    let b = gf_inv x in
    let v = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63 in
    s.(x) <- v
  done;
  for x = 0 to 255 do
    si.(s.(x)) <- x
  done;
  (s, si)

let word b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
let ror8 w = (w lsr 8) lor ((w land 0xff) lsl 24)

(* [t0] and its three byte rotations. *)
let rotations t0 =
  let t1 = Array.map ror8 t0 in
  let t2 = Array.map ror8 t1 in
  (t0, t1, t2, Array.map ror8 t2)

(* MixColumns coefficients (2, 1, 1, 3) down the column of S(x). *)
let te0, te1, te2, te3 =
  rotations
    (Array.init 256 (fun x ->
         let s = sbox.(x) in
         word (gf_mul 2 s) s s (gf_mul 3 s)))

(* InvMixColumns coefficients (14, 9, 13, 11) down the column of S^-1(x). *)
let td0, td1, td2, td3 =
  rotations
    (Array.init 256 (fun x ->
         let s = inv_sbox.(x) in
         word (gf_mul 14 s) (gf_mul 9 s) (gf_mul 13 s) (gf_mul 11 s)))

let rcon =
  (* Round constants: successive powers of x in GF(2^8). *)
  let r = Array.make 15 0 in
  let v = ref 1 in
  for i = 1 to 14 do
    r.(i) <- !v;
    v := xtime !v
  done;
  r

(* --- Key schedules ---------------------------------------------------------- *)

type t = {
  ek : int array; (* encryption round keys: 4 column words per round, rounds 0..nr *)
  dk : int array; (* equivalent inverse cipher round keys, in the order decryption uses them *)
  nr : int;
}

let sub_word w =
  word sbox.(w lsr 24) sbox.((w lsr 16) land 0xff) sbox.((w lsr 8) land 0xff) sbox.(w land 0xff)

(* InvMixColumns of one word: the [td] tables include InvSubBytes, which
   the S-box lookup cancels. *)
let inv_mix_word w =
  td0.(sbox.(w lsr 24))
  lxor td1.(sbox.((w lsr 16) land 0xff))
  lxor td2.(sbox.((w lsr 8) land 0xff))
  lxor td3.(sbox.(w land 0xff))

let of_key key =
  let nk =
    match String.length key with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.of_key: bad key length %d" n)
  in
  let nr = nk + 6 in
  let len = 4 * (nr + 1) in
  let ek = Array.make len 0 in
  for i = 0 to nk - 1 do
    ek.(i) <- Int32.to_int (String.get_int32_be key (4 * i)) land 0xffffffff
  done;
  for i = nk to len - 1 do
    let temp = ek.(i - 1) in
    let temp =
      if i mod nk = 0 then
        sub_word (((temp lsl 8) lor (temp lsr 24)) land 0xffffffff) lxor (rcon.(i / nk) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    ek.(i) <- ek.(i - nk) lxor temp
  done;
  (* Decryption round r uses encryption round nr - r, with InvMixColumns
     applied to every round but the first and the last. *)
  let dk =
    Array.init len (fun i ->
        let r = i / 4 in
        let w = ek.((4 * (nr - r)) + (i mod 4)) in
        if r = 0 || r = nr then w else inv_mix_word w)
  in
  { ek; dk; nr }

(* --- Block operations --------------------------------------------------------
   A block is four big-endian column words s0..s3. Each function reads
   the 16 bytes at [pos] and writes the result back over them. *)

let block_size = 16

let get b pos = Int32.to_int (Bytes.get_int32_be b pos) land 0xffffffff
let set b pos w = Bytes.set_int32_be b pos (Int32.of_int w)

(* One column of the last round, which has no MixColumns: the S-box of
   the ShiftRows-selected bytes of four columns. *)
let sub_shift a b c d =
  word sbox.(a lsr 24) sbox.((b lsr 16) land 0xff) sbox.((c lsr 8) land 0xff) sbox.(d land 0xff)

let inv_sub_shift a b c d =
  word inv_sbox.(a lsr 24) inv_sbox.((b lsr 16) land 0xff) inv_sbox.((c lsr 8) land 0xff)
    inv_sbox.(d land 0xff)

let encrypt_in_place t b pos =
  let k = t.ek in
  let s0 = ref (get b pos lxor k.(0))
  and s1 = ref (get b (pos + 4) lxor k.(1))
  and s2 = ref (get b (pos + 8) lxor k.(2))
  and s3 = ref (get b (pos + 12) lxor k.(3)) in
  for r = 1 to t.nr - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let o = 4 * r in
    s0 :=
      te0.(a0 lsr 24) lxor te1.((a1 lsr 16) land 0xff) lxor te2.((a2 lsr 8) land 0xff)
      lxor te3.(a3 land 0xff) lxor k.(o);
    s1 :=
      te0.(a1 lsr 24) lxor te1.((a2 lsr 16) land 0xff) lxor te2.((a3 lsr 8) land 0xff)
      lxor te3.(a0 land 0xff) lxor k.(o + 1);
    s2 :=
      te0.(a2 lsr 24) lxor te1.((a3 lsr 16) land 0xff) lxor te2.((a0 lsr 8) land 0xff)
      lxor te3.(a1 land 0xff) lxor k.(o + 2);
    s3 :=
      te0.(a3 lsr 24) lxor te1.((a0 lsr 16) land 0xff) lxor te2.((a1 lsr 8) land 0xff)
      lxor te3.(a2 land 0xff) lxor k.(o + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let o = 4 * t.nr in
  set b pos (sub_shift a0 a1 a2 a3 lxor k.(o));
  set b (pos + 4) (sub_shift a1 a2 a3 a0 lxor k.(o + 1));
  set b (pos + 8) (sub_shift a2 a3 a0 a1 lxor k.(o + 2));
  set b (pos + 12) (sub_shift a3 a0 a1 a2 lxor k.(o + 3))

(* InvShiftRows takes the columns in the opposite rotation. *)
let decrypt_in_place t b pos =
  let k = t.dk in
  let s0 = ref (get b pos lxor k.(0))
  and s1 = ref (get b (pos + 4) lxor k.(1))
  and s2 = ref (get b (pos + 8) lxor k.(2))
  and s3 = ref (get b (pos + 12) lxor k.(3)) in
  for r = 1 to t.nr - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let o = 4 * r in
    s0 :=
      td0.(a0 lsr 24) lxor td1.((a3 lsr 16) land 0xff) lxor td2.((a2 lsr 8) land 0xff)
      lxor td3.(a1 land 0xff) lxor k.(o);
    s1 :=
      td0.(a1 lsr 24) lxor td1.((a0 lsr 16) land 0xff) lxor td2.((a3 lsr 8) land 0xff)
      lxor td3.(a2 land 0xff) lxor k.(o + 1);
    s2 :=
      td0.(a2 lsr 24) lxor td1.((a1 lsr 16) land 0xff) lxor td2.((a0 lsr 8) land 0xff)
      lxor td3.(a3 land 0xff) lxor k.(o + 2);
    s3 :=
      td0.(a3 lsr 24) lxor td1.((a2 lsr 16) land 0xff) lxor td2.((a1 lsr 8) land 0xff)
      lxor td3.(a0 land 0xff) lxor k.(o + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let o = 4 * t.nr in
  set b pos (inv_sub_shift a0 a3 a2 a1 lxor k.(o));
  set b (pos + 4) (inv_sub_shift a1 a0 a3 a2 lxor k.(o + 1));
  set b (pos + 8) (inv_sub_shift a2 a1 a0 a3 lxor k.(o + 2));
  set b (pos + 12) (inv_sub_shift a3 a2 a1 a0 lxor k.(o + 3))

let one_block name f t block =
  if String.length block <> block_size then invalid_arg (name ^ ": block must be 16 bytes");
  let b = Bytes.of_string block in
  f t b 0;
  Bytes.unsafe_to_string b

let encrypt_block = one_block "Aes.encrypt_block" encrypt_in_place
let decrypt_block = one_block "Aes.decrypt_block" decrypt_in_place
