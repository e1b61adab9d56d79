(* Montgomery arithmetic for odd primes p < 2^61, one element per native
   int.

   Elements are Montgomery residues x·R mod p with R = 2^62, always kept
   canonical in [0, p), so equality and zero tests are plain int
   comparisons. The multiply is a two-round CIOS product over 31-bit
   half-words: operands split as a = a1·2^31 + a0 and b = b1·2^31 + b0
   with a1, b1, p1 < 2^30 (because a, b, p < 2^61) and a0, b0, p0 < 2^31.

   Overflow bound. OCaml ints hold [-2^62, 2^62). Every product of a
   31-bit half-word with a 31-bit half-word is at most (2^31 - 1)^2 <
   2^62, and with a 30-bit one below 2^61. Each round computes
     t' = (t + ai·b + m·p) / 2^31        (m < 2^31 chosen so 2^31 | the sum)
   where the low 31 bits are summed separately: t_lo + ai·b0 < 2^31 +
   2^62 - 2^32 + 1 < 2^62, and its low half plus m·p0 is below 2^62 too.
   The high half t_hi + ai·b1 + m·p1 + carry is t' itself, a sum of
   non-negative terms, so it cannot overflow if t' does not. With b < p,
   round 0 (t = 0) gives t' < (2^31·p + 2^31·p) / 2^31 = 2p, and round 1
   (t < 2p, a1 < 2^30) gives t' < (2p + 2^30·p + 2^31·p) / 2^31 < 2p;
   2p < 2^62.
   The final value is (a·b + M·p) / R with M < R, below p^2/R + p < 2p,
   so one conditional subtraction makes it canonical. The Montgomery
   factor m only needs the low 31 bits of t_lo·p', which wrapping native
   multiplication gives exactly.

   Nothing here allocates except the [Bignum] conversions at the edges. *)

let half_bits = 31
let half_mask = (1 lsl half_bits) - 1
let max_bits = 61

type t = {
  p : int;
  p0 : int; (* low 31 bits of p *)
  p1 : int; (* p lsr 31, below 2^30 *)
  pinv : int; (* -p^-1 mod 2^31 *)
  r2 : int; (* R^2 mod p, for entry into Montgomery form *)
  one : int; (* R mod p: the residue of 1 *)
  modulus : Bignum.t;
}

let create (m : Bignum.t) =
  if Bignum.is_even m || Bignum.compare m (Bignum.of_int 3) < 0
     || Bignum.num_bits m > max_bits
  then invalid_arg "Word_field.create: modulus must be odd, at least 3 and below 2^61";
  let p = Bignum.to_int_exn m in
  (* Newton's iteration doubles the correct low bits of p^-1 mod 2^k
     each step; p·p = 1 mod 8 starts it at three. *)
  let inv = ref p in
  for _ = 1 to 4 do
    inv := !inv * (2 - (p * !inv))
  done;
  let r_mod k = Bignum.to_int_exn (Bignum.rem (Bignum.shift_left Bignum.one k) m) in
  {
    p;
    p0 = p land half_mask;
    p1 = p lsr half_bits;
    pinv = - !inv land half_mask;
    r2 = r_mod 124;
    one = r_mod 62;
    modulus = m;
  }

(* a·b·R^-1 mod p for canonical a, b. *)
let mul f a b =
  let p0 = f.p0 and p1 = f.p1 and pinv = f.pinv in
  let a0 = a land half_mask and a1 = a lsr half_bits in
  let b0 = b land half_mask and b1 = b lsr half_bits in
  (* Round 0, t = 0. *)
  let lo = a0 * b0 in
  let m = lo * pinv land half_mask in
  let c = (lo lsr half_bits) + (((lo land half_mask) + (m * p0)) lsr half_bits) in
  let t = (a0 * b1) + (m * p1) + c in
  (* Round 1. *)
  let lo = (t land half_mask) + (a1 * b0) in
  let m = lo * pinv land half_mask in
  let c = (lo lsr half_bits) + (((lo land half_mask) + (m * p0)) lsr half_bits) in
  let t = (t lsr half_bits) + (a1 * b1) + (m * p1) + c in
  if t >= f.p then t - f.p else t

let sqr f a = mul f a a

let add f a b =
  let s = a + b in
  if s >= f.p then s - f.p else s

let sub f a b =
  let d = a - b in
  if d < 0 then d + f.p else d

let neg f a = if a = 0 then 0 else f.p - a

(* Right-to-left double and add; a loop rather than recursion so the
   ladder's calls inline. *)
let mul_small f a k =
  let acc = ref 0 and d = ref a and k = ref k in
  while !k > 0 do
    if !k land 1 = 1 then acc := add f !acc !d;
    d := add f !d !d;
    k := !k lsr 1
  done;
  !acc

let one f = f.one
let modulus f = f.p

let of_int f v = mul f (v mod f.p) f.r2
let to_int f a = mul f a 1

let of_bignum f (x : Bignum.t) =
  match Bignum.to_int_opt x with
  | Some v -> of_int f v
  | None -> of_int f (Bignum.to_int_exn (Bignum.rem x f.modulus))

let to_bignum f a = Bignum.of_int (to_int f a)

(* The residue of a^-1 for the residue x = aR: the plain inverse
   u = x^-1 = a^-1 R^-1 by the extended Euclidean algorithm on ints,
   then u·R^2 by two multiplications with R^2. For a prime p this is the
   a^(p-2) of Fermat, at about a third of its cost. The cofactors
   stay below p in magnitude, so no product overflows. *)
let inv f x =
  if x = 0 then invalid_arg "Word_field.inv: zero";
  let rec euclid r0 r1 t0 t1 =
    if r1 = 0 then t0
    else
      let q = r0 / r1 in
      euclid r1 (r0 - (q * r1)) t1 (t0 - (q * t1))
  in
  let u = euclid f.p x 0 1 in
  let u = if u < 0 then u + f.p else u in
  mul f (mul f u f.r2) f.r2
