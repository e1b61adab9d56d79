(* SHA-256 (FIPS 180-4). Verified against the FIPS/NIST known-answer
   vectors in the test suite and, under `dune runtest`, against the local
   OpenSSL.

   A chaining value is 32 big-endian bytes wherever it lives: in a
   streaming state, in an HMAC context or in a caller's buffer. The
   compression reads one, absorbs a block and writes one, so a midstate
   needs no conversion on its way in or out.

   The compression is straight-line code over [Int32]: 64 rounds of
   let-bound words, the round constants as immediates, each schedule word
   computed just before the round that first reads it (so at most 16 are
   live), and the working variables renamed instead of shuffled. ocamlopt
   keeps let-bound [Int32]s unboxed and [Int32] wraps mod 2^32, so no step
   masks. The entry points are [@inline never]: the library builds with
   [-inline 200], and inlined at every call site they grew the release
   CLI's text by 395 KB. *)

let digest_size = 32
let block_size = 64

external ( +: ) : int32 -> int32 -> int32 = "%int32_add"
external ( ^: ) : int32 -> int32 -> int32 = "%int32_xor"
external ( &: ) : int32 -> int32 -> int32 = "%int32_and"
external ( |: ) : int32 -> int32 -> int32 = "%int32_or"
external ( >>: ) : int32 -> int -> int32 = "%int32_lsr"
external ( <<: ) : int32 -> int -> int32 = "%int32_lsl"

let[@inline] rotr x n = (x >>: n) |: (x <<: (32 - n))
let[@inline] t1 e f g h k w = h +: (rotr e 6 ^: rotr e 11 ^: rotr e 25) +: (g ^: (e &: (f ^: g))) +: k +: w
let[@inline] t2 a b c = (rotr a 2 ^: rotr a 13 ^: rotr a 22) +: ((a &: (b |: c)) |: (b &: c))

(* w(i) from w(i-2), w(i-7), w(i-15) and w(i-16). *)
let[@inline] sched w2 w7 w15 w16 =
  w16 +: (rotr w15 7 ^: rotr w15 18 ^: (w15 >>: 3)) +: w7 +: (rotr w2 17 ^: rotr w2 19 ^: (w2 >>: 10))

(* Absorb the 64-byte block of [blk] at [bpos] into the chaining value of
   [src] at [spos], writing the result into [dst] at [dpos]. Every input
   word is read before the first write, so [dst] may overlap [src] or
   [blk]. *)
let[@inline never] compress (src : Bytes.t) spos (blk : Bytes.t) bpos (dst : Bytes.t) dpos =
  let h0 = Bytes.get_int32_be src spos and h1 = Bytes.get_int32_be src (spos + 4) in
  let h2 = Bytes.get_int32_be src (spos + 8) and h3 = Bytes.get_int32_be src (spos + 12) in
  let h4 = Bytes.get_int32_be src (spos + 16) and h5 = Bytes.get_int32_be src (spos + 20) in
  let h6 = Bytes.get_int32_be src (spos + 24) and h7 = Bytes.get_int32_be src (spos + 28) in
  let w0 = Bytes.get_int32_be blk bpos and w1 = Bytes.get_int32_be blk (bpos + 4) in
  let w2 = Bytes.get_int32_be blk (bpos + 8) and w3 = Bytes.get_int32_be blk (bpos + 12) in
  let w4 = Bytes.get_int32_be blk (bpos + 16) and w5 = Bytes.get_int32_be blk (bpos + 20) in
  let w6 = Bytes.get_int32_be blk (bpos + 24) and w7 = Bytes.get_int32_be blk (bpos + 28) in
  let w8 = Bytes.get_int32_be blk (bpos + 32) and w9 = Bytes.get_int32_be blk (bpos + 36) in
  let w10 = Bytes.get_int32_be blk (bpos + 40) and w11 = Bytes.get_int32_be blk (bpos + 44) in
  let w12 = Bytes.get_int32_be blk (bpos + 48) and w13 = Bytes.get_int32_be blk (bpos + 52) in
  let w14 = Bytes.get_int32_be blk (bpos + 56) and w15 = Bytes.get_int32_be blk (bpos + 60) in
  let a = h0 and b = h1 and c = h2 and d = h3 and e = h4 and f = h5 and g = h6 and h = h7 in
  let t = t1 e f g h 0x428a2f98l w0 in let d = d +: t and h = t +: t2 a b c in
  let t = t1 d e f g 0x71374491l w1 in let c = c +: t and g = t +: t2 h a b in
  let t = t1 c d e f 0xb5c0fbcfl w2 in let b = b +: t and f = t +: t2 g h a in
  let t = t1 b c d e 0xe9b5dba5l w3 in let a = a +: t and e = t +: t2 f g h in
  let t = t1 a b c d 0x3956c25bl w4 in let h = h +: t and d = t +: t2 e f g in
  let t = t1 h a b c 0x59f111f1l w5 in let g = g +: t and c = t +: t2 d e f in
  let t = t1 g h a b 0x923f82a4l w6 in let f = f +: t and b = t +: t2 c d e in
  let t = t1 f g h a 0xab1c5ed5l w7 in let e = e +: t and a = t +: t2 b c d in
  let t = t1 e f g h 0xd807aa98l w8 in let d = d +: t and h = t +: t2 a b c in
  let t = t1 d e f g 0x12835b01l w9 in let c = c +: t and g = t +: t2 h a b in
  let t = t1 c d e f 0x243185bel w10 in let b = b +: t and f = t +: t2 g h a in
  let t = t1 b c d e 0x550c7dc3l w11 in let a = a +: t and e = t +: t2 f g h in
  let t = t1 a b c d 0x72be5d74l w12 in let h = h +: t and d = t +: t2 e f g in
  let t = t1 h a b c 0x80deb1fel w13 in let g = g +: t and c = t +: t2 d e f in
  let t = t1 g h a b 0x9bdc06a7l w14 in let f = f +: t and b = t +: t2 c d e in
  let t = t1 f g h a 0xc19bf174l w15 in let e = e +: t and a = t +: t2 b c d in
  let w16 = sched w14 w9 w1 w0 in
  let t = t1 e f g h 0xe49b69c1l w16 in let d = d +: t and h = t +: t2 a b c in
  let w17 = sched w15 w10 w2 w1 in
  let t = t1 d e f g 0xefbe4786l w17 in let c = c +: t and g = t +: t2 h a b in
  let w18 = sched w16 w11 w3 w2 in
  let t = t1 c d e f 0x0fc19dc6l w18 in let b = b +: t and f = t +: t2 g h a in
  let w19 = sched w17 w12 w4 w3 in
  let t = t1 b c d e 0x240ca1ccl w19 in let a = a +: t and e = t +: t2 f g h in
  let w20 = sched w18 w13 w5 w4 in
  let t = t1 a b c d 0x2de92c6fl w20 in let h = h +: t and d = t +: t2 e f g in
  let w21 = sched w19 w14 w6 w5 in
  let t = t1 h a b c 0x4a7484aal w21 in let g = g +: t and c = t +: t2 d e f in
  let w22 = sched w20 w15 w7 w6 in
  let t = t1 g h a b 0x5cb0a9dcl w22 in let f = f +: t and b = t +: t2 c d e in
  let w23 = sched w21 w16 w8 w7 in
  let t = t1 f g h a 0x76f988dal w23 in let e = e +: t and a = t +: t2 b c d in
  let w24 = sched w22 w17 w9 w8 in
  let t = t1 e f g h 0x983e5152l w24 in let d = d +: t and h = t +: t2 a b c in
  let w25 = sched w23 w18 w10 w9 in
  let t = t1 d e f g 0xa831c66dl w25 in let c = c +: t and g = t +: t2 h a b in
  let w26 = sched w24 w19 w11 w10 in
  let t = t1 c d e f 0xb00327c8l w26 in let b = b +: t and f = t +: t2 g h a in
  let w27 = sched w25 w20 w12 w11 in
  let t = t1 b c d e 0xbf597fc7l w27 in let a = a +: t and e = t +: t2 f g h in
  let w28 = sched w26 w21 w13 w12 in
  let t = t1 a b c d 0xc6e00bf3l w28 in let h = h +: t and d = t +: t2 e f g in
  let w29 = sched w27 w22 w14 w13 in
  let t = t1 h a b c 0xd5a79147l w29 in let g = g +: t and c = t +: t2 d e f in
  let w30 = sched w28 w23 w15 w14 in
  let t = t1 g h a b 0x06ca6351l w30 in let f = f +: t and b = t +: t2 c d e in
  let w31 = sched w29 w24 w16 w15 in
  let t = t1 f g h a 0x14292967l w31 in let e = e +: t and a = t +: t2 b c d in
  let w32 = sched w30 w25 w17 w16 in
  let t = t1 e f g h 0x27b70a85l w32 in let d = d +: t and h = t +: t2 a b c in
  let w33 = sched w31 w26 w18 w17 in
  let t = t1 d e f g 0x2e1b2138l w33 in let c = c +: t and g = t +: t2 h a b in
  let w34 = sched w32 w27 w19 w18 in
  let t = t1 c d e f 0x4d2c6dfcl w34 in let b = b +: t and f = t +: t2 g h a in
  let w35 = sched w33 w28 w20 w19 in
  let t = t1 b c d e 0x53380d13l w35 in let a = a +: t and e = t +: t2 f g h in
  let w36 = sched w34 w29 w21 w20 in
  let t = t1 a b c d 0x650a7354l w36 in let h = h +: t and d = t +: t2 e f g in
  let w37 = sched w35 w30 w22 w21 in
  let t = t1 h a b c 0x766a0abbl w37 in let g = g +: t and c = t +: t2 d e f in
  let w38 = sched w36 w31 w23 w22 in
  let t = t1 g h a b 0x81c2c92el w38 in let f = f +: t and b = t +: t2 c d e in
  let w39 = sched w37 w32 w24 w23 in
  let t = t1 f g h a 0x92722c85l w39 in let e = e +: t and a = t +: t2 b c d in
  let w40 = sched w38 w33 w25 w24 in
  let t = t1 e f g h 0xa2bfe8a1l w40 in let d = d +: t and h = t +: t2 a b c in
  let w41 = sched w39 w34 w26 w25 in
  let t = t1 d e f g 0xa81a664bl w41 in let c = c +: t and g = t +: t2 h a b in
  let w42 = sched w40 w35 w27 w26 in
  let t = t1 c d e f 0xc24b8b70l w42 in let b = b +: t and f = t +: t2 g h a in
  let w43 = sched w41 w36 w28 w27 in
  let t = t1 b c d e 0xc76c51a3l w43 in let a = a +: t and e = t +: t2 f g h in
  let w44 = sched w42 w37 w29 w28 in
  let t = t1 a b c d 0xd192e819l w44 in let h = h +: t and d = t +: t2 e f g in
  let w45 = sched w43 w38 w30 w29 in
  let t = t1 h a b c 0xd6990624l w45 in let g = g +: t and c = t +: t2 d e f in
  let w46 = sched w44 w39 w31 w30 in
  let t = t1 g h a b 0xf40e3585l w46 in let f = f +: t and b = t +: t2 c d e in
  let w47 = sched w45 w40 w32 w31 in
  let t = t1 f g h a 0x106aa070l w47 in let e = e +: t and a = t +: t2 b c d in
  let w48 = sched w46 w41 w33 w32 in
  let t = t1 e f g h 0x19a4c116l w48 in let d = d +: t and h = t +: t2 a b c in
  let w49 = sched w47 w42 w34 w33 in
  let t = t1 d e f g 0x1e376c08l w49 in let c = c +: t and g = t +: t2 h a b in
  let w50 = sched w48 w43 w35 w34 in
  let t = t1 c d e f 0x2748774cl w50 in let b = b +: t and f = t +: t2 g h a in
  let w51 = sched w49 w44 w36 w35 in
  let t = t1 b c d e 0x34b0bcb5l w51 in let a = a +: t and e = t +: t2 f g h in
  let w52 = sched w50 w45 w37 w36 in
  let t = t1 a b c d 0x391c0cb3l w52 in let h = h +: t and d = t +: t2 e f g in
  let w53 = sched w51 w46 w38 w37 in
  let t = t1 h a b c 0x4ed8aa4al w53 in let g = g +: t and c = t +: t2 d e f in
  let w54 = sched w52 w47 w39 w38 in
  let t = t1 g h a b 0x5b9cca4fl w54 in let f = f +: t and b = t +: t2 c d e in
  let w55 = sched w53 w48 w40 w39 in
  let t = t1 f g h a 0x682e6ff3l w55 in let e = e +: t and a = t +: t2 b c d in
  let w56 = sched w54 w49 w41 w40 in
  let t = t1 e f g h 0x748f82eel w56 in let d = d +: t and h = t +: t2 a b c in
  let w57 = sched w55 w50 w42 w41 in
  let t = t1 d e f g 0x78a5636fl w57 in let c = c +: t and g = t +: t2 h a b in
  let w58 = sched w56 w51 w43 w42 in
  let t = t1 c d e f 0x84c87814l w58 in let b = b +: t and f = t +: t2 g h a in
  let w59 = sched w57 w52 w44 w43 in
  let t = t1 b c d e 0x8cc70208l w59 in let a = a +: t and e = t +: t2 f g h in
  let w60 = sched w58 w53 w45 w44 in
  let t = t1 a b c d 0x90befffal w60 in let h = h +: t and d = t +: t2 e f g in
  let w61 = sched w59 w54 w46 w45 in
  let t = t1 h a b c 0xa4506cebl w61 in let g = g +: t and c = t +: t2 d e f in
  let w62 = sched w60 w55 w47 w46 in
  let t = t1 g h a b 0xbef9a3f7l w62 in let f = f +: t and b = t +: t2 c d e in
  let w63 = sched w61 w56 w48 w47 in
  let t = t1 f g h a 0xc67178f2l w63 in let e = e +: t and a = t +: t2 b c d in
  Bytes.set_int32_be dst dpos (h0 +: a);
  Bytes.set_int32_be dst (dpos + 4) (h1 +: b);
  Bytes.set_int32_be dst (dpos + 8) (h2 +: c);
  Bytes.set_int32_be dst (dpos + 12) (h3 +: d);
  Bytes.set_int32_be dst (dpos + 16) (h4 +: e);
  Bytes.set_int32_be dst (dpos + 20) (h5 +: f);
  Bytes.set_int32_be dst (dpos + 24) (h6 +: g);
  Bytes.set_int32_be dst (dpos + 28) (h7 +: h)

let iv =
  let b = Bytes.create digest_size in
  List.iteri
    (fun i w -> Bytes.set_int32_be b (4 * i) w)
    [ 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l ];
  b

type t = {
  h : Bytes.t; (* the chaining value *)
  block : Bytes.t; (* 64-byte staging buffer *)
  mutable block_len : int;
  mutable total_len : int; (* bytes hashed so far *)
}

let init () = { h = Bytes.copy iv; block = Bytes.create block_size; block_len = 0; total_len = 0 }

let copy t =
  { h = Bytes.copy t.h; block = Bytes.copy t.block; block_len = t.block_len; total_len = t.total_len }

let[@inline never] update t s =
  let len = String.length s in
  t.total_len <- t.total_len + len;
  let pos = ref 0 in
  (* Top up a partially filled staging block first. *)
  if t.block_len > 0 then begin
    let take = min (block_size - t.block_len) len in
    Bytes.blit_string s 0 t.block t.block_len take;
    t.block_len <- t.block_len + take;
    pos := take;
    if t.block_len = block_size then begin
      compress t.h 0 t.block 0 t.h 0;
      t.block_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= block_size do
    compress t.h 0 src !pos t.h 0;
    pos := !pos + block_size
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos t.block 0 (len - !pos);
    t.block_len <- len - !pos
  end

(* Finish the padding of [blk] from byte [n]: zeros, then the 64-bit
   big-endian bit length [total_len * 8] in the last 8 bytes. *)
let[@inline] pad_tail blk n total_len =
  Bytes.fill blk n (block_size - 8 - n) '\x00';
  Bytes.set_int64_be blk (block_size - 8) (Int64.of_int (total_len * 8))

(* Pad in the staging block itself: 0x80, then [pad_tail], spilling into
   a second block when fewer than 9 bytes are left. *)
let[@inline never] finalize t =
  let n = t.block_len in
  Bytes.set t.block n '\x80';
  let n =
    if n + 1 > block_size - 8 then begin
      Bytes.fill t.block (n + 1) (block_size - n - 1) '\x00';
      compress t.h 0 t.block 0 t.h 0;
      0
    end
    else n + 1
  in
  pad_tail t.block n t.total_len;
  compress t.h 0 t.block 0 t.h 0;
  t.block_len <- 0;
  Bytes.sub_string t.h 0 digest_size

let digest s =
  let t = init () in
  update t s;
  finalize t

let digest_list parts =
  let t = init () in
  List.iter (update t) parts;
  finalize t

(* --- Midstates --------------------------------------------------------------- *)

let[@inline never] midstate_of_block (block : Bytes.t) (dst : Bytes.t) ~pos = compress iv 0 block 0 dst pos

let of_midstate (s : string) ~pos =
  {
    h = Bytes.sub (Bytes.unsafe_of_string s) pos digest_size;
    block = Bytes.create block_size;
    block_len = 0;
    total_len = block_size;
  }

let max_short = block_size - 9
let max_tail = (2 * block_size) - 9

(* The staging blocks of [finish_short] and [digest_short]. Nothing in a
   compression yields, so one pair per domain serves every call. *)
let staging = Domain.DLS.new_key (fun () -> Bytes.create (2 * block_size))

(* The padded tail of a message of [prefix + len] bytes, whose first
   [prefix] bytes are already absorbed into the chaining value at
   [mid.(mpos)]: one block up to [max_short] bytes, two up to
   [max_tail]. *)
let[@inline] last_blocks ~what mid mpos ~prefix msg pos len dst at =
  if len < 0 || len > max_tail then invalid_arg (what ^ ": message longer than 119 bytes");
  let blk = Domain.DLS.get staging in
  Bytes.blit msg pos blk 0 len;
  Bytes.set blk len '\x80';
  if len <= max_short then begin
    pad_tail blk (len + 1) (prefix + len);
    compress mid mpos blk 0 dst at
  end
  else begin
    Bytes.fill blk (len + 1) (max_tail - len) '\x00';
    Bytes.set_int64_be blk ((2 * block_size) - 8) (Int64.of_int ((prefix + len) * 8));
    compress mid mpos blk 0 dst at;
    compress dst at blk block_size dst at
  end

let[@inline never] finish_short mid mpos msg ~pos ~len dst ~at =
  last_blocks ~what:"Sha256.finish_short" mid mpos ~prefix:block_size msg pos len dst at

let[@inline never] digest_short msg ~pos ~len dst ~at =
  last_blocks ~what:"Sha256.digest_short" iv 0 ~prefix:0 msg pos len dst at
