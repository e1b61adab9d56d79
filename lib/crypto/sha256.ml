(* SHA-256 (FIPS 180-4), implemented over native ints with 32-bit masking.
   Verified against the FIPS/NIST known-answer vectors in the test suite
   and, under `dune runtest`, against the local OpenSSL.

   The compression runs 8 rounds per loop iteration with the working
   variables renamed instead of shuffled. Each Sigma/sigma doubles its
   32-bit input into 64 bits ([x lor (x lsl 32)]), so every rotation is a
   single shift and one mask covers all three. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let mask32 = 0xffffffff
let digest_size = 32
let block_size = 64

type t = {
  h : int array; (* the eight chaining words *)
  block : Bytes.t; (* 64-byte staging buffer *)
  mutable block_len : int;
  mutable total_len : int; (* bytes hashed so far *)
}

(* The message schedule is scratch that no state outlives a compression
   with, so each domain keeps one instead of every state carrying its
   own. Nothing in a compression yields, so it cannot be shared within
   a domain either. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

let[@inline] word (data : Bytes.t) off = Int32.to_int (Bytes.get_int32_be data off) land mask32

let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land mask32

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land mask32

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land (b lor c)) lor (b land c)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask32

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  ((xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)) land mask32

(* Absorb the 64-byte block of [data] at [off] into the chaining words
   [hs], using [w] for the message schedule. *)
let compress (hs : int array) (w : int array) (data : Bytes.t) off =
  for i = 0 to 15 do
    w.(i) <- word data (off + (4 * i))
  done;
  for i = 16 to 63 do
    w.(i) <- (w.(i - 16) + small_sigma0 w.(i - 15) + w.(i - 7) + small_sigma1 w.(i - 2)) land mask32
  done;
  let a = ref hs.(0) and b = ref hs.(1) and c = ref hs.(2) and d = ref hs.(3) in
  let e = ref hs.(4) and f = ref hs.(5) and g = ref hs.(6) and h = ref hs.(7) in
  let round = ref 0 in
  while !round < 64 do
    (* Round j writes T1 into d and T1 + T2 into h; round j + 1 then reads
       the same registers under names rotated by one. *)
    let j = !round in
    let t1 = !h + big_sigma1 !e + ch !e !f !g + k.(j) + w.(j) in
    d := (!d + t1) land mask32;
    h := (t1 + big_sigma0 !a + maj !a !b !c) land mask32;
    let t1 = !g + big_sigma1 !d + ch !d !e !f + k.(j + 1) + w.(j + 1) in
    c := (!c + t1) land mask32;
    g := (t1 + big_sigma0 !h + maj !h !a !b) land mask32;
    let t1 = !f + big_sigma1 !c + ch !c !d !e + k.(j + 2) + w.(j + 2) in
    b := (!b + t1) land mask32;
    f := (t1 + big_sigma0 !g + maj !g !h !a) land mask32;
    let t1 = !e + big_sigma1 !b + ch !b !c !d + k.(j + 3) + w.(j + 3) in
    a := (!a + t1) land mask32;
    e := (t1 + big_sigma0 !f + maj !f !g !h) land mask32;
    let t1 = !d + big_sigma1 !a + ch !a !b !c + k.(j + 4) + w.(j + 4) in
    h := (!h + t1) land mask32;
    d := (t1 + big_sigma0 !e + maj !e !f !g) land mask32;
    let t1 = !c + big_sigma1 !h + ch !h !a !b + k.(j + 5) + w.(j + 5) in
    g := (!g + t1) land mask32;
    c := (t1 + big_sigma0 !d + maj !d !e !f) land mask32;
    let t1 = !b + big_sigma1 !g + ch !g !h !a + k.(j + 6) + w.(j + 6) in
    f := (!f + t1) land mask32;
    b := (t1 + big_sigma0 !c + maj !c !d !e) land mask32;
    let t1 = !a + big_sigma1 !f + ch !f !g !h + k.(j + 7) + w.(j + 7) in
    e := (!e + t1) land mask32;
    a := (t1 + big_sigma0 !b + maj !b !c !d) land mask32;
    round := j + 8
  done;
  hs.(0) <- (hs.(0) + !a) land mask32;
  hs.(1) <- (hs.(1) + !b) land mask32;
  hs.(2) <- (hs.(2) + !c) land mask32;
  hs.(3) <- (hs.(3) + !d) land mask32;
  hs.(4) <- (hs.(4) + !e) land mask32;
  hs.(5) <- (hs.(5) + !f) land mask32;
  hs.(6) <- (hs.(6) + !g) land mask32;
  hs.(7) <- (hs.(7) + !h) land mask32

let init () = { h = Array.copy iv; block = Bytes.create block_size; block_len = 0; total_len = 0 }

let copy t =
  { h = Array.copy t.h; block = Bytes.copy t.block; block_len = t.block_len; total_len = t.total_len }

let update t s =
  let len = String.length s in
  t.total_len <- t.total_len + len;
  let w = Domain.DLS.get schedule in
  let pos = ref 0 in
  (* Top up a partially filled staging block first. *)
  if t.block_len > 0 then begin
    let take = min (block_size - t.block_len) len in
    Bytes.blit_string s 0 t.block t.block_len take;
    t.block_len <- t.block_len + take;
    pos := take;
    if t.block_len = block_size then begin
      compress t.h w t.block 0;
      t.block_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= block_size do
    compress t.h w src !pos;
    pos := !pos + block_size
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos t.block 0 (len - !pos);
    t.block_len <- len - !pos
  end

(* Pad in the staging block itself: 0x80, zeros, then the 64-bit
   big-endian bit length in the last 8 bytes, spilling into a second
   block when fewer than 9 bytes are left. *)
let finalize t =
  let w = Domain.DLS.get schedule in
  let n = t.block_len in
  Bytes.set t.block n '\x80';
  let n =
    if n + 1 > block_size - 8 then begin
      Bytes.fill t.block (n + 1) (block_size - n - 1) '\x00';
      compress t.h w t.block 0;
      0
    end
    else n + 1
  in
  Bytes.fill t.block n (block_size - 8 - n) '\x00';
  Bytes.set_int64_be t.block (block_size - 8) (Int64.of_int (t.total_len * 8));
  compress t.h w t.block 0;
  t.block_len <- 0;
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int t.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let t = init () in
  update t s;
  finalize t

let digest_list parts =
  let t = init () in
  List.iter (update t) parts;
  finalize t

(* --- Midstates --------------------------------------------------------------- *)

let midstate_of_block (block : Bytes.t) (dst : Bytes.t) ~pos =
  let hs = Array.copy iv in
  compress hs (Domain.DLS.get schedule) block 0;
  for i = 0 to 7 do
    Bytes.set_int32_be dst (pos + (4 * i)) (Int32.of_int hs.(i))
  done

let of_midstate (s : string) ~pos =
  let h = Array.make 8 0 in
  let src = Bytes.unsafe_of_string s in
  for i = 0 to 7 do
    h.(i) <- word src (pos + (4 * i))
  done;
  { h; block = Bytes.create block_size; block_len = 0; total_len = block_size }
