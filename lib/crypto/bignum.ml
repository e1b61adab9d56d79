(* Arbitrary-precision unsigned integers ("naturals") built from scratch:
   the container has no zarith, and the (EC)DHE substrate needs modular
   exponentiation over 64..2048-bit moduli.

   Representation: little-endian [int array] of 26-bit limbs with no leading
   zero limbs ([zero] is the empty array). 26-bit limbs keep every
   intermediate product of the schoolbook and Montgomery multipliers within
   53 bits, comfortably inside OCaml's 63-bit native ints.

   The performance-sensitive operations are [pow_mod] / [pow_mod_ctx] /
   [pow_mod_fixed] — every simulated (EC)DHE handshake runs one or more
   modular exponentiations — and the Montgomery kernels behind {!Field}.
   The hot kernels use a fused single-pass CIOS multiplier, a dedicated
   squaring path ([mont_sqr]), sliding-window exponentiation and a
   fixed-base comb cache; {!Reference} retains the seed-era kernels as the
   obviously-correct baseline for property tests and the bench-regression
   harness. Division is limb-wise (Knuth's Algorithm D); everything else
   is simple schoolbook code. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

(* Strip leading (high-order) zero limbs to restore canonical form. *)
let norm (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec count v n = if v = 0 then n else count (v lsr limb_bits) (n + 1) in
  let a = Array.make (count v 0) 0 in
  let v = ref v in
  for i = 0 to Array.length a - 1 do
    a.(i) <- !v land mask;
    v := !v lsr limb_bits
  done;
  a

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) =
  (* [(v lsl limb_bits) lor a.(i)] equals [v * base + a.(i)] (the ranges
     are disjoint), which fits iff [v <= (max_int - a.(i)) / base] — an
     exact bound for any limb width, unlike guarding on
     [max_int lsr limb_bits] alone, which under-admits whenever the top
     limb's capacity is not a full limb. Overflow is monotone in the
     remaining limbs, so rejecting at the first overflowing step is
     complete. *)
  let rec go i v =
    if i < 0 then Some v
    else if v > (max_int - a.(i)) lsr limb_bits then None
    else go (i - 1) ((v lsl limb_bits) lor a.(i))
  in
  go (Array.length a - 1) 0

let to_int_exn a =
  match to_int_opt a with
  | Some v -> v
  | None -> invalid_arg "Bignum.to_int_exn: does not fit"

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0
let is_one a = equal a one

(* Bit width of a non-negative int: 0 for 0. *)
let limb_width v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width a.(n - 1)

let test_bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_even a = not (test_bit a 0)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    out.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  norm out

(* [sub a b] requires [a >= b]. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  norm out

let add_int a v = add a (of_int v)
let sub_int a v = sub a (of_int v)

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- s land mask;
        carry := s lsr limb_bits
      done;
      (* Propagate the final carry; it can span several limbs because the
         target slot may already hold accumulated value. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = out.(!k) + !carry in
        out.(!k) <- s land mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    norm out
  end

let mul_int a v = mul a (of_int v)

let shift_left (a : t) bits : t =
  if bits < 0 then invalid_arg "Bignum.shift_left: negative";
  if is_zero a || bits = 0 then a
  else
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      out.(i + limbs) <- out.(i + limbs) lor (v land mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    norm out

let shift_right (a : t) bits : t =
  if bits < 0 then invalid_arg "Bignum.shift_right: negative";
  if is_zero a || bits = 0 then a
  else
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi =
          if off = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - off)) land mask
        in
        out.(i) <- lo lor hi
      done;
      norm out

(* Short division by a one-limb divisor: every partial dividend
   [r * 2^26 + limb] stays below 2^52. *)
let divmod_limb (a : t) (d : int) : t * t =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    let qi = cur / d in
    q.(i) <- qi;
    r := cur - (qi * d)
  done;
  (norm q, if !r = 0 then zero else [| !r |])

(* Long division, Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) over the
   26-bit limbs: one quotient limb per step instead of one bit. Both
   operands are shifted left by [s] so the divisor's top limb has its
   high bit set; then the two-limb estimate [qhat] of each quotient limb,
   corrected against the divisor's next limb, is at most one too large,
   and the rare overshoot is repaired by adding the divisor back. Every
   intermediate stays below 2^54: the estimate's numerator below 2^52,
   [qhat] at most 2^26 + 1 against the next limb, and each
   multiply-subtract product below 2^52 + 2^26. Runs on every ECDSA
   signature and verification, curve-order inverse and Miller-Rabin
   round. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    let la = Array.length a and n = Array.length b in
    let s = limb_bits - limb_width b.(n - 1) in
    (* v = b lsl s (n limbs, top bit set); u = a lsl s (la + 1 limbs). *)
    let shifted x len =
      Array.init len (fun i ->
          let lo = if i < Array.length x then (x.(i) lsl s) land mask else 0 in
          let hi = if i > 0 then x.(i - 1) lsr (limb_bits - s) else 0 in
          lo lor hi)
    in
    let v = shifted b n and u = shifted a (la + 1) in
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    let q = Array.make (la - n + 1) 0 in
    for j = la - n downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num - (!qhat * vtop)) in
      while
        !rhat < base
        && (!qhat >= base || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* u[j..j+n] -= qhat * v *)
      let carry = ref 0 and borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let top = u.(j + n) - !carry - !borrow in
      if top >= 0 then begin
        u.(j + n) <- top;
        q.(j) <- !qhat
      end
      else begin
        (* qhat was one too large: add v back; the carry out cancels the
           borrow, leaving the top limb 0. *)
        q.(j) <- !qhat - 1;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let sum = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- sum land mask;
          carry := sum lsr limb_bits
        done;
        u.(j + n) <- (top + !carry) land mask
      end
    done;
    (* The remainder is u[0..n-1] lsr s; u[n] is 0. *)
    let r =
      Array.init n (fun i ->
          (u.(i) lsr s) lor ((u.(i + 1) lsl (limb_bits - s)) land mask))
    in
    (norm q, norm r)
  end

let rem a b = snd (divmod a b)

(* --- Montgomery arithmetic (odd modulus) ------------------------------- *)

(* A fixed-base comb table (Lim–Lee): for a base [g] and exponents of at
   most [w * d] bits, [tbl.(j)] holds g^(Σ_{k ∈ bits j} 2^(k·d)) in
   Montgomery form, so an exponentiation costs [d] squarings and at most
   [d] multiplications instead of ~[bits] squarings plus window
   multiplications. Built once per (context, base) and cached on the
   context — {!Dh.gen_keypair}'s repeated g^priv over the same group is
   the payoff. *)
type fixed_base = {
  fb_ctx : mont;
  fb_base : t; (* canonical base, for cache lookup and fallback *)
  fb_w : int; (* comb teeth (rows) *)
  fb_d : int; (* digits per row: covers exponents below 2^(w*d) *)
  fb_tbl : int array array; (* 2^w entries, Montgomery form; [0] is unused *)
}

and mont = {
  m : int array; (* modulus, padded to [n] limbs *)
  modulus : t; (* canonical copy, for reductions *)
  n : int; (* limb count *)
  n0' : int; (* -m^-1 mod 2^26 *)
  r2 : int array; (* R^2 mod m, padded, R = 2^(26n) *)
  rm : int array; (* R mod m, padded: 1 in Montgomery form *)
  fb_lock : Mutex.t; (* guards [fb_cache] across domains *)
  mutable fb_cache : fixed_base list;
}

let mont_of_modulus (m : t) : mont =
  if is_zero m || is_even m then invalid_arg "Bignum.mont_of_modulus: modulus must be odd";
  let n = Array.length m in
  let padded = Array.make n 0 in
  Array.blit m 0 padded 0 n;
  (* n0' = -m0^-1 mod 2^26 via Newton iteration (5 steps reach 32 bits). *)
  let m0 = m.(0) in
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := !inv * (2 - (m0 * !inv)) land mask
  done;
  let n0' = base - !inv land mask in
  let n0' = n0' land mask in
  let r_mod_m = rem (shift_left one (n * limb_bits)) m in
  let r2 = rem (mul r_mod_m r_mod_m) m in
  let r2p = Array.make n 0 in
  Array.blit r2 0 r2p 0 (Array.length r2);
  let rmp = Array.make n 0 in
  Array.blit r_mod_m 0 rmp 0 (Array.length r_mod_m);
  {
    m = padded;
    modulus = m;
    n;
    n0' = n0';
    r2 = r2p;
    rm = rmp;
    fb_lock = Mutex.create ();
    fb_cache = [];
  }

(* Subtract the modulus once from the (n+1)-limb value whose low limbs are
   [src] and whose top limb is [carry], known to lie in [0, 2m); shared tail
   of the kernels below and of {!Field.add}. Writes the n-limb result into
   [dst], which may be [src]: every limb is read before it is written. *)
let cond_sub_m_into ctx (carry : int) (src : int array) (dst : int array) : unit =
  let n = ctx.n in
  let m = ctx.m in
  let ge =
    carry > 0
    ||
    let rec go i =
      if i < 0 then true
      else if Array.unsafe_get src i <> Array.unsafe_get m i then
        Array.unsafe_get src i > Array.unsafe_get m i
      else go (i - 1)
    in
    go (n - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = Array.unsafe_get src i - Array.unsafe_get m i - !borrow in
      if d < 0 then begin
        Array.unsafe_set dst i (d + base);
        borrow := 1
      end
      else begin
        Array.unsafe_set dst i d;
        borrow := 0
      end
    done
  end
  else Array.blit src 0 dst 0 n

(* Fused CIOS Montgomery multiplication: dst = a * b * R^-1 mod m. The
   multiply and the reduction share one inner loop per outer limb, halving
   loop and memory traffic versus the two-pass seed kernel (kept in
   {!Reference}). Range check for the fused accumulator: t.(j) < 2^26 and
   ai*b.(j) + u*m.(j) < 2^53, so s stays below 2^53 + 2^28 — inside a
   63-bit int — and carries below 2^27. [t] is an (n+1)-limb scratch;
   [a], [b] and [dst] are n-limb arrays (not necessarily canonical), and
   [dst] may alias [a] or [b] — the accumulator lives in [t] and [dst] is
   only written by the final conditional subtract. *)
let mont_mul_into ctx (t : int array) (dst : int array) (a : int array) (b : int array) : unit =
  let n = ctx.n in
  let m = ctx.m in
  let n0' = ctx.n0' in
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    let s0 = Array.unsafe_get t 0 + (ai * Array.unsafe_get b 0) in
    let u = (s0 land mask) * n0' land mask in
    let carry = ref ((s0 + (u * Array.unsafe_get m 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s =
        Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (u * Array.unsafe_get m j) + !carry
      in
      Array.unsafe_set t (j - 1) (s land mask);
      carry := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !carry in
    Array.unsafe_set t (n - 1) (s land mask);
    Array.unsafe_set t n (s lsr limb_bits)
  done;
  cond_sub_m_into ctx t.(n) t dst

(* Dedicated squaring via finely-integrated product scanning (FIPS):
   each output column accumulates its doubled cross products, its diagonal
   term, and its share of the Montgomery reduction in a single register
   before one store — ~1.5n² limb multiplications against the multiplier's
   2n², and none of the load/store churn of a separate double-width square.
   [t] (the multiplier's (n+1)-limb scratch) receives the n output
   columns and [u] (n limbs) the reduction multipliers; neither needs
   clearing, as each limb is written before it is read. [dst] may alias
   [a].

   Column-accumulator range: a column gathers at most n doubled cross
   products (< n·2^53) plus a diagonal (< 2^52) plus n reduction products
   u_i·m_j (< n·2^52) plus an inter-column carry (< 2^36), so it stays
   below ~1.5n·2^53 — inside a 63-bit int for n up to ~340 limbs (~8800
   bits), far beyond any modulus this library handles. *)
let mont_sqr_into ctx (t : int array) (u : int array) (dst : int array) (a : int array) : unit =
  let n = ctx.n in
  let m = ctx.m in
  let n0' = ctx.n0' in
  (* Both inner loops are 2-way unrolled with independent accumulators:
     a single-multiply column loop is latency-bound on the add chain, and
     splitting it recovers the instruction-level parallelism the fused
     multiplier gets for free from its two products per iteration. *)
  (* conv x y k lo hi = Σ_{i=lo..hi} x_i · y_{k−i} *)
  let conv (x : int array) (y : int array) k lo hi =
    let s1 = ref 0 and s2 = ref 0 in
    let i = ref lo in
    while !i < hi do
      s1 := !s1 + (Array.unsafe_get x !i * Array.unsafe_get y (k - !i));
      s2 := !s2 + (Array.unsafe_get x (!i + 1) * Array.unsafe_get y (k - !i - 1));
      i := !i + 2
    done;
    if !i = hi then s1 := !s1 + (Array.unsafe_get x hi * Array.unsafe_get y (k - hi));
    !s1 + !s2
  in
  let carry = ref 0 in
  (* Low columns k = 0..n-1: full square column + reduction products of
     the u_i chosen so far, then pick u_k to zero the column. *)
  for k = 0 to n - 1 do
    let acc = ref !carry in
    acc := !acc + (conv a a k 0 ((k - 1) asr 1) lsl 1);
    (if k land 1 = 0 then
       let h = Array.unsafe_get a (k lsr 1) in
       acc := !acc + (h * h));
    acc := !acc + conv u m k 0 (k - 1);
    let uk = (!acc land mask) * n0' land mask in
    Array.unsafe_set u k uk;
    acc := !acc + (uk * Array.unsafe_get m 0);
    carry := !acc lsr limb_bits
  done;
  (* High columns k = n..2n-1 land directly in the output. *)
  for k = n to (2 * n) - 1 do
    let acc = ref !carry in
    acc := !acc + (conv a a k (k - n + 1) ((k - 1) asr 1) lsl 1);
    (if k land 1 = 0 && k lsr 1 < n then
       let h = Array.unsafe_get a (k lsr 1) in
       acc := !acc + (h * h));
    acc := !acc + conv u m k (k - n + 1) (n - 1);
    Array.unsafe_set t (k - n) (!acc land mask);
    carry := !acc lsr limb_bits
  done;
  (* (a² + u·m)/R < 2m since a < m; one conditional subtract finishes. *)
  cond_sub_m_into ctx !carry t dst

(* Squaring for the in-place ladders below: the fused multiplier below 5
   limbs, where the dedicated kernel's setup costs more than the
   multiplications it saves, and {!mont_sqr_into} from 5 limbs up. *)
let ladder_sqr ctx t u (acc : int array) =
  if ctx.n <= 4 then mont_mul_into ctx t acc acc acc else mont_sqr_into ctx t u acc acc

(* Allocating forms, for one-off conversions, table builds and {!Field}. *)
let mont_mul ctx (a : int array) (b : int array) : int array =
  let dst = Array.make ctx.n 0 in
  mont_mul_into ctx (Array.make (ctx.n + 1) 0) dst a b;
  dst

let mont_sqr ctx (a : int array) : int array =
  let dst = Array.make ctx.n 0 in
  mont_sqr_into ctx (Array.make (ctx.n + 1) 0) (Array.make ctx.n 0) dst a;
  dst

let pad_to n (a : t) =
  let out = Array.make n 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

(* Montgomery form of a canonical value, and back. *)
let to_mont ctx (a : t) = mont_mul ctx (pad_to ctx.n (rem a ctx.modulus)) ctx.r2
let of_mont ctx (a : int array) = norm (mont_mul ctx a (pad_to ctx.n one))

(* Sliding-window width for an exponent of [ebits] bits: the widest table
   whose construction cost (2^(w-1) multiplications) is amortized by the
   ~ebits/(w+1) window multiplications it saves. Capped at 5 (a 16-entry
   odd-powers table), past which returns diminish below 4096 bits. *)
let window_width ebits =
  if ebits <= 8 then 1
  else if ebits <= 24 then 2
  else if ebits <= 80 then 3
  else if ebits <= 240 then 4
  else 5

(* Bits [lo..hi] of [e] (inclusive) as an int; hi - lo < 26. *)
let bits_range (e : t) lo hi =
  let v = ref 0 in
  for i = hi downto lo do
    v := (!v lsl 1) lor (if test_bit e i then 1 else 0)
  done;
  !v

(* Left-to-right sliding-window exponentiation over a Montgomery context
   for e > 0: multiplications hit a precomputed odd-powers table a^1, a^3,
   …, a^(2^w − 1), so runs of zero bits cost squarings only. Walks in
   place — one scratch pair and one accumulator, no allocation per
   Montgomery operation. *)
let pow_mont (ctx : mont) (am : int array) (e : t) : int array =
  let n = ctx.n in
  let ebits = num_bits e in
  let w = window_width ebits in
  let t = Array.make (n + 1) 0 and u = Array.make n 0 in
  let a2 = Array.copy am in
  ladder_sqr ctx t u a2;
  let tbl = Array.make (1 lsl (w - 1)) am in
  for i = 1 to Array.length tbl - 1 do
    tbl.(i) <- Array.make n 0;
    mont_mul_into ctx t tbl.(i) tbl.(i - 1) a2
  done;
  let acc = Array.make n 0 in
  let started = ref false in
  let i = ref (ebits - 1) in
  while !i >= 0 do
    if not (test_bit e !i) then begin
      if !started then ladder_sqr ctx t u acc;
      decr i
    end
    else begin
      (* Largest window ending in a set bit: [l..i], l chosen so the
         windowed value is odd and at most w bits wide. *)
      let l = ref (max 0 (!i - w + 1)) in
      while not (test_bit e !l) do
        incr l
      done;
      let odd = tbl.((bits_range e !l !i - 1) / 2) in
      if !started then begin
        for _ = !l to !i do
          ladder_sqr ctx t u acc
        done;
        mont_mul_into ctx t acc acc odd
      end
      else Array.blit odd 0 acc 0 n;
      started := true;
      i := !l - 1
    end
  done;
  acc

(* Native-word fast path: when the modulus fits 31 bits, every product of
   two residues fits a 62-bit tagged int, so plain square-and-multiply on
   hardware integers (with hardware division for the reduction) beats any
   limb-array machinery — and requires no Montgomery setup at all. The
   31-bit cap is exactly the point where a*b can no longer overflow the
   63-bit native int. Caller guarantees m >= 2 and e > 0. *)
let pow_mod_native_bits = 31

let pow_mod_native (mi : int) (a : t) (e : t) : t =
  let ai = to_int_exn (rem a (of_int mi)) in
  let acc = ref ai in
  for i = num_bits e - 2 downto 0 do
    acc := !acc * !acc mod mi;
    if test_bit e i then acc := !acc * ai mod mi
  done;
  of_int !acc

let pow_mod_ctx (ctx : mont) (a : t) (e : t) : t =
  Obs.Kernel.(bump pow_mod);
  if is_zero e then rem one ctx.modulus
  else if num_bits ctx.modulus <= pow_mod_native_bits then
    pow_mod_native (to_int_exn ctx.modulus) a e
  else of_mont ctx (pow_mont ctx (to_mont ctx a) e)

(* a^e mod m. Odd m takes {!pow_mod_ctx}; generic square-and-multiply
   with binary reduction otherwise. *)
let pow_mod (a : t) (e : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if is_one m then zero
  else if not (is_even m) then pow_mod_ctx (mont_of_modulus m) a e
  else begin
    (* Right-to-left square and multiply with explicit reduction; even
       moduli never occur on hot paths. *)
    let e_bits = num_bits e in
    let acc = ref (rem one m) in
    let b = ref (rem a m) in
    for i = 0 to e_bits - 1 do
      if test_bit e i then acc := rem (mul !acc !b) m;
      if i < e_bits - 1 then b := rem (mul !b !b) m
    done;
    !acc
  end

(* --- Fixed-base comb ----------------------------------------------------- *)

let fixed_base_build ctx (g : t) ~w ~d : fixed_base =
  let gm = to_mont ctx g in
  (* rows.(k) = g^(2^(k*d)) in Montgomery form. *)
  let rows = Array.make w gm in
  for k = 1 to w - 1 do
    let x = ref rows.(k - 1) in
    for _ = 1 to d do
      x := mont_sqr ctx !x
    done;
    rows.(k) <- !x
  done;
  let tbl = Array.make (1 lsl w) ctx.rm in
  for j = 1 to (1 lsl w) - 1 do
    let low = j land -j in
    let k = ref 0 in
    let v = ref low in
    while !v > 1 do
      v := !v lsr 1;
      incr k
    done;
    tbl.(j) <- (if j = low then rows.(!k) else mont_mul ctx tbl.(j - low) rows.(!k))
  done;
  { fb_ctx = ctx; fb_base = rem g ctx.modulus; fb_w = w; fb_d = d; fb_tbl = tbl }

let fixed_base_teeth = 4

let fixed_base (ctx : mont) (g : t) ~max_bits : fixed_base =
  if max_bits <= 0 then invalid_arg "Bignum.fixed_base: max_bits must be positive";
  let g = rem g ctx.modulus in
  let d = (max_bits + fixed_base_teeth - 1) / fixed_base_teeth in
  Mutex.lock ctx.fb_lock;
  let found =
    List.find_opt (fun fb -> fb.fb_d = d && equal fb.fb_base g) ctx.fb_cache
  in
  match found with
  | Some fb ->
      Mutex.unlock ctx.fb_lock;
      fb
  | None ->
      (* Build under the lock: redundant concurrent builds of a 2^w-entry
         table cost more than the brief exclusion, and callers only hit
         this once per (group, base). *)
      let fb =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock ctx.fb_lock)
          (fun () ->
            let fb = fixed_base_build ctx g ~w:fixed_base_teeth ~d in
            ctx.fb_cache <- fb :: ctx.fb_cache;
            fb)
      in
      fb

let pow_mod_fixed (fb : fixed_base) (e : t) : t =
  Obs.Kernel.(bump pow_mod_fixed);
  let ctx = fb.fb_ctx in
  if is_zero e then rem one ctx.modulus
  else if num_bits e > fb.fb_w * fb.fb_d then
    (* Wider than the table covers; correctness over speed. *)
    pow_mod_ctx ctx fb.fb_base e
  else begin
    (* The comb walked in place through the ladder's multiply and square. *)
    let n = ctx.n and d = fb.fb_d in
    let t = Array.make (n + 1) 0 and u = Array.make n 0 in
    let acc = Array.make n 0 in
    let started = ref false in
    for i = d - 1 downto 0 do
      if !started then ladder_sqr ctx t u acc;
      let j = ref 0 in
      for k = fb.fb_w - 1 downto 0 do
        j := (!j lsl 1) lor (if test_bit e (i + (k * d)) then 1 else 0)
      done;
      if !j <> 0 then begin
        if !started then mont_mul_into ctx t acc acc fb.fb_tbl.(!j)
        else Array.blit fb.fb_tbl.(!j) 0 acc 0 n;
        started := true
      end
    done;
    of_mont ctx acc
  end

(* --- Seed-era reference kernels -------------------------------------------
   Verbatim copies of the pre-optimization multiplier and exponentiation
   loop. They are the semantic baseline: the property suite asserts the
   windowed/comb paths agree with these on random inputs, and the bench
   harness reports speedups against them. Do not "optimize" this module. *)

module Reference = struct
  let mont_mul ctx (a : int array) (b : int array) : int array =
    let n = ctx.n in
    let m = ctx.m in
    let t = Array.make (n + 2) 0 in
    for i = 0 to n - 1 do
      let ai = a.(i) in
      let carry = ref 0 in
      for j = 0 to n - 1 do
        let s = t.(j) + (ai * b.(j)) + !carry in
        t.(j) <- s land mask;
        carry := s lsr limb_bits
      done;
      let s = t.(n) + !carry in
      t.(n) <- s land mask;
      t.(n + 1) <- t.(n + 1) + (s lsr limb_bits);
      let mi = t.(0) * ctx.n0' land mask in
      let s = t.(0) + (mi * m.(0)) in
      let carry = ref (s lsr limb_bits) in
      for j = 1 to n - 1 do
        let s = t.(j) + (mi * m.(j)) + !carry in
        t.(j - 1) <- s land mask;
        carry := s lsr limb_bits
      done;
      let s = t.(n) + !carry in
      t.(n - 1) <- s land mask;
      t.(n) <- t.(n + 1) + (s lsr limb_bits);
      t.(n + 1) <- 0
    done;
    let out = Array.sub t 0 n in
    (* Conditional final subtraction: t may be in [0, 2m). *)
    let ge =
      if t.(n) > 0 then true
      else begin
        let rec go i =
          if i < 0 then true else if out.(i) <> m.(i) then out.(i) > m.(i) else go (i - 1)
        in
        go (n - 1)
      end
    in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let d = out.(i) - m.(i) - !borrow in
        if d < 0 then begin
          out.(i) <- d + base;
          borrow := 1
        end
        else begin
          out.(i) <- d;
          borrow := 0
        end
      done
    end;
    out

  let pow_mod_ctx (ctx : mont) (a : t) (e : t) : t =
    if is_zero e then rem one ctx.modulus
    else begin
      let n = ctx.n in
      let am = mont_mul ctx (pad_to n (rem a ctx.modulus)) ctx.r2 in
      let acc = ref (mont_mul ctx (pad_to n one) ctx.r2) in
      for i = num_bits e - 1 downto 0 do
        acc := mont_mul ctx !acc !acc;
        if test_bit e i then acc := mont_mul ctx !acc am
      done;
      norm (mont_mul ctx !acc (pad_to n one))
    end

  let pow_mod (a : t) (e : t) (m : t) : t =
    if is_zero m then raise Division_by_zero;
    if is_one m then zero
    else if is_zero e then rem one m
    else if is_even m then begin
      let e_bits = num_bits e in
      let acc = ref (rem one m) in
      let b = ref (rem a m) in
      for i = 0 to e_bits - 1 do
        if test_bit e i then acc := rem (mul !acc !b) m;
        if i < e_bits - 1 then b := rem (mul !b !b) m
      done;
      !acc
    end
    else pow_mod_ctx (mont_of_modulus m) a e
end

(* Modular inverse for prime modulus via Fermat's little theorem. Every
   modulus we invert under (EC field primes) is prime. *)
let mod_inverse_prime (a : t) (p : t) : t =
  let a = rem a p in
  if is_zero a then invalid_arg "Bignum.mod_inverse_prime: zero has no inverse";
  pow_mod a (sub p two) p

(* --- Prime-field elements in Montgomery form ----------------------------
   Elliptic-curve point arithmetic performs long chains of modular
   multiplications; keeping operands in Montgomery form makes each one a
   single CIOS pass instead of a multiply followed by binary division. *)

module Field = struct
  type ctx = mont
  type fe = int array (* n-limb, Montgomery form, < m *)

  (* Aliases for whole-number operations shadowed by the field ops below. *)
  let bignum_sub = sub

  let create (m : t) : ctx = mont_of_modulus m
  let modulus (c : ctx) = c.modulus

  let of_bignum (c : ctx) (a : t) : fe = to_mont c a
  let to_bignum (c : ctx) (a : fe) : t = of_mont c a

  let zero (c : ctx) : fe = Array.make c.n 0
  let one (c : ctx) : fe = of_bignum c one

  let is_zero (a : fe) = Array.for_all (fun v -> v = 0) a
  let equal (a : fe) (b : fe) = a = b

  let add (c : ctx) (a : fe) (b : fe) : fe =
    let n = c.n in
    let out = Array.make n 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = a.(i) + b.(i) + !carry in
      out.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    (* The sum is below 2m, so one conditional subtract reduces it. *)
    cond_sub_m_into c !carry out out;
    out

  let sub (c : ctx) (a : fe) (b : fe) : fe =
    let n = c.n in
    let out = Array.make n 0 in
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = a.(i) - b.(i) - !borrow in
      if d < 0 then begin
        out.(i) <- d + base;
        borrow := 1
      end
      else begin
        out.(i) <- d;
        borrow := 0
      end
    done;
    if !borrow = 1 then begin
      (* Underflow: add the modulus back. *)
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = out.(i) + c.m.(i) + !carry in
        out.(i) <- s land mask;
        carry := s lsr limb_bits
      done
    end;
    out

  let mul (c : ctx) (a : fe) (b : fe) : fe = mont_mul c a b
  let sqr (c : ctx) (a : fe) : fe = mont_sqr c a

  let mul_small (c : ctx) (a : fe) k =
    (* k is a small non-negative int (<= 8 in practice); double-and-add
       keeps this logarithmic — it sits on the EC hot path. *)
    if k = 0 then zero c
    else begin
      let rec go k = if k = 1 then a else
        let half = go (k / 2) in
        let dbl = add c half half in
        if k land 1 = 1 then add c dbl a else dbl
      in
      go k
    end

  let inv (c : ctx) (a : fe) : fe =
    (* Fermat inversion; modulus is prime for every caller. *)
    let av = to_bignum c a in
    if is_zero av then invalid_arg "Field.inv: zero";
    of_bignum c (pow_mod_ctx c av (bignum_sub c.modulus two))

  let pow (c : ctx) (a : fe) (e : t) : fe =
    if is_zero e then one c else pow_mont c a e
end

(* --- Conversions -------------------------------------------------------- *)

(* One pass from the last (least significant) byte: bytes are packed 8
   bits at a time into the limb being filled, which spills into the next
   once it holds 26 bits. *)
let of_bytes_be (s : string) : t =
  let len = String.length s in
  let out = Array.make (((len * 8) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!k) <- !acc land mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr k
    end
  done;
  if !bits > 0 then out.(!k) <- !acc;
  norm out

let to_bytes_be ?len (a : t) : string =
  let nbytes = (num_bits a + 7) / 8 in
  let nbytes = max nbytes 1 in
  let width = match len with None -> nbytes | Some l -> l in
  if nbytes > width then invalid_arg "Bignum.to_bytes_be: value too wide";
  String.init width (fun i ->
      let byte_index = width - 1 - i in
      let bit = byte_index * 8 in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      if limb >= Array.length a then '\000'
      else
        let lo = a.(limb) lsr off in
        let hi =
          if limb + 1 < Array.length a && off > limb_bits - 8 then
            a.(limb + 1) lsl (limb_bits - off)
          else 0
        in
        Char.chr ((lo lor hi) land 0xff))

let of_hex h = of_bytes_be (Wire.Hex.decode h)

let to_hex a = Wire.Hex.encode (to_bytes_be a)

(* Decimal rendering, for human-readable sizes in reports. *)
let to_decimal (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let ten = of_int 10 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod a ten in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r))
      end
    in
    go a;
    Buffer.contents buf
  end

let of_decimal (s : string) : t =
  if s = "" then invalid_arg "Bignum.of_decimal: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Bignum.of_decimal: bad digit")
    s;
  !acc
