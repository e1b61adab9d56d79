(* Elliptic-curve groups in short Weierstrass form y^2 = x^3 + ax + b over
   a prime field, with Jacobian-coordinate point arithmetic.

   Two kinds of curves are provided, mirroring {!Dh}: [p256] is the real
   NIST P-256 curve (the dominant TLS ECDHE curve in 2016), used by tests,
   examples and benches; [generate_small ~bits ~seed] deterministically
   builds a small supersingular curve (y^2 = x^3 + x over p = 4q - 1 with
   q prime, group order 4q) so simulation sweeps can run millions of
   handshakes. Both are real EC groups; the small curves' cryptographic
   weakness (MOV) is irrelevant to the measurements, as discussed in
   DESIGN.md.

   Scalar multiplication is the campaign's hottest kernel (one or two per
   simulated handshake), so every curve whose field prime is below 2^61 —
   every curve a simulation runs on — gets one fast ladder over
   {!Word_field} residues held in plain ints: [scalar_mult] recodes the
   scalar in width-w NAF against a table of odd multiples, and
   [scalar_mult_base] walks a per-curve fixed-base comb of affine points
   (built once in [make_curve]) with mixed additions, all in Jacobian
   coordinates with no per-operation allocation. P-256, which no
   simulation uses, runs on the seed-era double-and-add kept in
   {!Reference} over [Bignum.Field]; [make_curve] refuses any other
   prime. [Bignum.Field] also serves curve construction and
   [add]/[double].

   The glue around the ladder takes the same choice, made once per curve
   in [make_curve]: on a one-word curve, [point_of_bytes] decodes the
   coordinates straight into ints, [on_curve] and [agree] check and
   multiply on {!Word_field} residues, and arithmetic modulo the group
   order ([order], which ECDSA uses for r, s, u1, u2 and the inverses)
   runs on a {!Word_field} over n whenever n is an odd number below
   2^61, as every simulation curve's prime order is. P-256 keeps the
   limb path throughout.

   Arithmetic is not constant-time; this library measures protocol
   behaviour, it does not defend live traffic. *)

module F = Bignum.Field
module W = Word_field

(* Arithmetic modulo the group order n, on an element type each curve
   picks once: ints on a {!Word_field} over n, or [Bignum.t]. *)
type 's order_ops = {
  of_bignum : Bignum.t -> 's;
  to_bignum : 's -> Bignum.t;
  is_zero : 's -> bool;
  equal : 's -> 's -> bool;
  add : 's -> 's -> 's;
  mul : 's -> 's -> 's;
  inv : 's -> 's;
}

type order = Order : 's order_ops -> order

let zero_inverse () = invalid_arg "Ec.mod_order_inverse: zero"

(* Limbs, with one cached Montgomery context for the inverse: Fermat's
   a^(n-2), counted in [kernel.pow_mod]. *)
let limb_order n =
  let mont = lazy (Bignum.mont_of_modulus n) in
  let reduce a = if Bignum.compare a n < 0 then a else Bignum.rem a n in
  Order
    {
      of_bignum = reduce;
      to_bignum = Fun.id;
      is_zero = Bignum.is_zero;
      equal = Bignum.equal;
      add = (fun a b -> reduce (Bignum.add a b));
      mul = (fun a b -> Bignum.rem (Bignum.mul a b) n);
      inv =
        (fun a ->
          if Bignum.is_zero a then zero_inverse ();
          Bignum.pow_mod_ctx (Lazy.force mont) a (Bignum.sub n Bignum.two));
    }

(* One word: Montgomery residues mod n, inverted by {!Word_field.inv}
   (for a prime n the a^(n-2) of the limb path), with no allocation
   between the conversions. *)
let word_order f =
  Order
    {
      of_bignum = W.of_bignum f;
      to_bignum = W.to_bignum f;
      is_zero = (fun a -> a = 0);
      equal = Int.equal;
      add = W.add f;
      mul = W.mul f;
      inv = (fun a -> if a = 0 then zero_inverse () else W.inv f a);
    }

type curve = {
  name : string;
  fctx : F.ctx;
  a : F.fe;
  b : F.fe;
  a_is_minus3 : bool;
  gx : Bignum.t;
  gy : Bignum.t;
  n : Bignum.t; (* order of the base point *)
  h : int; (* cofactor *)
  order : order; (* arithmetic modulo n *)
  fast : fast option; (* the one-word ladder; [None] for P-256 *)
}

and fast = {
  f : W.t;
  ca : int; (* [a] as a Montgomery residue *)
  cb : int; (* [b] as a Montgomery residue *)
  comb : comb; (* fixed-base comb for [scalar_mult_base], built eagerly *)
}

(* Lim–Lee comb over the base point: [ctable.(j)] is the affine form of
   Σ_{k ∈ bits j} 2^(k·cd) · G as Montgomery residues ([None] for the
   point at infinity, which a tooth pattern can hit when the implied
   scalar is a multiple of n), so every comb addition is a mixed addition
   with no conversion. *)
and comb = { cw : int; cd : int; ctable : (int * int) option array }

type point = Inf | Affine of Bignum.t * Bignum.t

let curve_name c = c.name
let curve_p c = F.modulus c.fctx
let curve_order c = c.n
let base_point c = Affine (c.gx, c.gy)

(* --- Jacobian arithmetic -------------------------------------------------
   (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z = 0 is infinity. *)

type jac = { x : F.fe; y : F.fe; z : F.fe }

let jac_inf c = { x = F.one c.fctx; y = F.one c.fctx; z = F.zero c.fctx }
let jac_is_inf j = F.is_zero j.z

let to_jac c = function
  | Inf -> jac_inf c
  | Affine (x, y) ->
      { x = F.of_bignum c.fctx x; y = F.of_bignum c.fctx y; z = F.one c.fctx }

let of_jac c j =
  if jac_is_inf j then Inf
  else begin
    let f = c.fctx in
    let zinv = F.inv f j.z in
    let zinv2 = F.sqr f zinv in
    let x = F.mul f j.x zinv2 in
    let y = F.mul f j.y (F.mul f zinv2 zinv) in
    Affine (F.to_bignum f x, F.to_bignum f y)
  end

let jac_double c j =
  if jac_is_inf j || F.is_zero j.y then jac_inf c
  else begin
    let f = c.fctx in
    let y2 = F.sqr f j.y in
    let s = F.mul_small f (F.mul f j.x y2) 4 in
    let m =
      if c.a_is_minus3 then begin
        (* 3(X - Z^2)(X + Z^2) *)
        let z2 = F.sqr f j.z in
        F.mul_small f (F.mul f (F.sub f j.x z2) (F.add f j.x z2)) 3
      end
      else begin
        let x2 = F.sqr f j.x in
        let z4 = F.sqr f (F.sqr f j.z) in
        F.add f (F.mul_small f x2 3) (F.mul f c.a z4)
      end
    in
    let x' = F.sub f (F.sqr f m) (F.mul_small f s 2) in
    let y' = F.sub f (F.mul f m (F.sub f s x')) (F.mul_small f (F.sqr f y2) 8) in
    let z' = F.mul_small f (F.mul f j.y j.z) 2 in
    { x = x'; y = y'; z = z' }
  end

let jac_add c p q =
  if jac_is_inf p then q
  else if jac_is_inf q then p
  else begin
    let f = c.fctx in
    let z12 = F.sqr f p.z and z2'2 = F.sqr f q.z in
    let u1 = F.mul f p.x z2'2 and u2 = F.mul f q.x z12 in
    let s1 = F.mul f p.y (F.mul f z2'2 q.z) and s2 = F.mul f q.y (F.mul f z12 p.z) in
    if F.equal u1 u2 then
      if F.equal s1 s2 then jac_double c p else jac_inf c
    else begin
      let h = F.sub f u2 u1 in
      let r = F.sub f s2 s1 in
      let h2 = F.sqr f h in
      let h3 = F.mul f h2 h in
      let u1h2 = F.mul f u1 h2 in
      let x3 = F.sub f (F.sub f (F.sqr f r) h3) (F.mul_small f u1h2 2) in
      let y3 = F.sub f (F.mul f r (F.sub f u1h2 x3)) (F.mul f s1 h3) in
      let z3 = F.mul f h (F.mul f p.z q.z) in
      { x = x3; y = y3; z = z3 }
    end
  end

(* --- Seed-era reference kernel --------------------------------------------
   The pre-optimization bit-at-a-time double-and-add, kept verbatim: the
   property suite asserts the wNAF and comb paths agree with it, the
   bench harness reports speedups against it, and P-256 runs on it. Do
   not "optimize". *)

module Reference = struct
  let scalar_mult c k p =
    if Bignum.is_zero k then Inf
    else begin
      let base = to_jac c p in
      let acc = ref (jac_inf c) in
      for i = Bignum.num_bits k - 1 downto 0 do
        acc := jac_double c !acc;
        if Bignum.test_bit k i then acc := jac_add c !acc base
      done;
      of_jac c !acc
    end

  let scalar_mult_base c k = scalar_mult c k (base_point c)
end

(* --- One-word ladder -------------------------------------------------------
   A Jacobian point over {!Word_field} residues is a record of three
   mutable ints, Z = 0 marking infinity (residues are canonical, so 0 is
   the only zero). Each formula reads its operands into locals before it
   writes the result back, so the ladder allocates nothing per
   operation. *)

type wpt = { mutable x : int; mutable y : int; mutable z : int }

let wpt_inf () = { x = 0; y = 0; z = 0 }

let wpt_of_point fa = function
  | Inf -> wpt_inf ()
  | Affine (x, y) -> { x = W.of_bignum fa.f x; y = W.of_bignum fa.f y; z = W.one fa.f }

let twice f v = W.add f v v

(* p <- 2p: the general dbl-1986-cc formulas of [jac_double]. *)
let wdbl fa p =
  if p.z = 0 then ()
  else if p.y = 0 then p.z <- 0
  else begin
    let f = fa.f in
    let x = p.x and y = p.y and z = p.z in
    let y2 = W.sqr f y in
    let s = twice f (twice f (W.mul f x y2)) in
    let x2 = W.sqr f x and z2 = W.sqr f z in
    let m = W.add f (W.add f (twice f x2) x2) (W.mul f fa.ca (W.sqr f z2)) in
    let x' = W.sub f (W.sqr f m) (twice f s) in
    p.x <- x';
    p.y <- W.sub f (W.mul f m (W.sub f s x')) (twice f (twice f (twice f (W.sqr f y2))));
    p.z <- twice f (W.mul f y z)
  end

(* p <- p + (qx, qy, qz): the add-1986-cc formulas of [jac_add]. *)
let wadd fa p qx qy qz =
  if qz = 0 then ()
  else if p.z = 0 then begin
    p.x <- qx;
    p.y <- qy;
    p.z <- qz
  end
  else begin
    let f = fa.f in
    let x1 = p.x and y1 = p.y and z1 = p.z in
    let z1z1 = W.sqr f z1 and z2z2 = W.sqr f qz in
    let u1 = W.mul f x1 z2z2 and u2 = W.mul f qx z1z1 in
    let s1 = W.mul f y1 (W.mul f z2z2 qz) and s2 = W.mul f qy (W.mul f z1z1 z1) in
    if u1 = u2 then if s1 = s2 then wdbl fa p else p.z <- 0
    else begin
      let h = W.sub f u2 u1 and r = W.sub f s2 s1 in
      let h2 = W.sqr f h in
      let h3 = W.mul f h2 h and u1h2 = W.mul f u1 h2 in
      let x3 = W.sub f (W.sub f (W.sqr f r) h3) (twice f u1h2) in
      p.x <- x3;
      p.y <- W.sub f (W.mul f r (W.sub f u1h2 x3)) (W.mul f s1 h3);
      p.z <- W.mul f h (W.mul f z1 qz)
    end
  end

(* p <- p + (ax, ay) with the second operand affine (Z = 1): saves four
   multiplications and a squaring over [wadd]; it is what makes the
   comb's affine table pay. *)
let wadd_affine fa p ax ay =
  if p.z = 0 then begin
    p.x <- ax;
    p.y <- ay;
    p.z <- W.one fa.f
  end
  else begin
    let f = fa.f in
    let x1 = p.x and y1 = p.y and z1 = p.z in
    let z1z1 = W.sqr f z1 in
    let u2 = W.mul f ax z1z1 and s2 = W.mul f ay (W.mul f z1z1 z1) in
    if x1 = u2 then if y1 = s2 then wdbl fa p else p.z <- 0
    else begin
      let h = W.sub f u2 x1 and r = W.sub f s2 y1 in
      let h2 = W.sqr f h in
      let h3 = W.mul f h2 h and v = W.mul f x1 h2 in
      let x3 = W.sub f (W.sub f (W.sqr f r) h3) (twice f v) in
      p.x <- x3;
      p.y <- W.sub f (W.mul f r (W.sub f v x3)) (W.mul f y1 h3);
      p.z <- W.mul f z1 h
    end
  end

let point_of_wpt fa p =
  if p.z = 0 then Inf
  else begin
    let f = fa.f in
    let zinv = W.inv f p.z in
    let zinv2 = W.sqr f zinv in
    Affine (W.to_bignum f (W.mul f p.x zinv2), W.to_bignum f (W.mul f p.y (W.mul f zinv2 zinv)))
  end

(* --- Scalar multiplication ----------------------------------------------- *)

(* Width-w NAF recoding, least significant digit first: digits are zero or
   odd in [-(2^w - 1), 2^w - 1], with at least w zeros after each nonzero
   digit, so a b-bit scalar needs ~b/(w+1) point additions.

   The scalar's bits are copied once into a scratch bit array and the
   recoding runs entirely on native ints: a negative digit clears its
   window and propagates a +1 carry upward, instead of re-materialising
   the shrinking scalar as a fresh [Bignum.t] per bit (~300 short-lived
   allocations per 256-bit scalar on the old path). *)
let wnaf_digits ~w k =
  let nbits = Bignum.num_bits k in
  let digits = Array.make (nbits + 2) 0 in
  (* Room above the top bit: the carry can extend the scalar by one bit,
     and windows read w bits past the current position. *)
  let bits = Array.make (nbits + w + 2) 0 in
  for i = 0 to nbits - 1 do
    bits.(i) <- (if Bignum.test_bit k i then 1 else 0)
  done;
  let half = 1 lsl w in
  let full = 1 lsl (w + 1) in
  let top = ref (nbits - 1) in
  let pos = ref 0 in
  let len = ref 0 in
  while !pos <= !top do
    (if bits.(!pos) = 0 then digits.(!len) <- 0
     else begin
       let d = ref 0 in
       for j = w downto 0 do
         d := (!d lsl 1) lor bits.(!pos + j)
       done;
       let dv = !d in
       for j = 0 to w do
         bits.(!pos + j) <- 0
       done;
       if dv >= half then begin
         (* Centered residue dv - 2^(w+1): subtracting it adds 2^(w+1)
            at [pos], i.e. a carry entering at [pos + w + 1]. *)
         let i = ref (!pos + w + 1) in
         while !i <= !top && bits.(!i) = 1 do
           bits.(!i) <- 0;
           incr i
         done;
         bits.(!i) <- 1;
         if !i > !top then top := !i;
         digits.(!len) <- dv - full
       end
       else begin
         (* The window held the remaining top bits: nothing left above. *)
         if !pos + w >= !top then top := !pos;
         digits.(!len) <- dv
       end
     end);
    incr len;
    incr pos
  done;
  (digits, !len)

let wnaf_width kbits =
  if kbits <= 16 then 2 else if kbits <= 64 then 3 else if kbits <= 160 then 4 else 5

(* acc <- k·q. [q] is only read and may be any point, infinity and
   points outside the order-n subgroup included. *)
let wnaf_mult fa k q acc =
  acc.z <- 0;
  if not (Bignum.is_zero k || q.z = 0) then begin
    let f = fa.f in
    let w = wnaf_width (Bignum.num_bits k) in
    (* Odd multiples Q, 3Q, 5Q, …, (2^w - 1)Q, one column per coordinate. *)
    let size = 1 lsl (w - 1) in
    let tx = Array.make size q.x and ty = Array.make size q.y and tz = Array.make size q.z in
    let q2 = { x = q.x; y = q.y; z = q.z } in
    wdbl fa q2;
    let t = { x = q.x; y = q.y; z = q.z } in
    for i = 1 to size - 1 do
      wadd fa t q2.x q2.y q2.z;
      tx.(i) <- t.x;
      ty.(i) <- t.y;
      tz.(i) <- t.z
    done;
    let digits, len = wnaf_digits ~w k in
    for i = len - 1 downto 0 do
      wdbl fa acc;
      let d = digits.(i) in
      if d > 0 then begin
        let j = (d - 1) / 2 in
        wadd fa acc tx.(j) ty.(j) tz.(j)
      end
      else if d < 0 then begin
        let j = (-d - 1) / 2 in
        wadd fa acc tx.(j) (W.neg f ty.(j)) tz.(j)
      end
    done
  end

(* acc <- k·G via the fixed-base comb. *)
let comb_mult c fa k acc =
  let { cw; cd; ctable } = fa.comb in
  if Bignum.num_bits k > cw * cd then
    (* Wider than the comb covers (scalars beyond the group order);
       correctness over speed. *)
    wnaf_mult fa k (wpt_of_point fa (base_point c)) acc
  else begin
    acc.z <- 0;
    for i = cd - 1 downto 0 do
      wdbl fa acc;
      let j = ref 0 in
      for t = cw - 1 downto 0 do
        j := (!j lsl 1) lor (if Bignum.test_bit k (i + (t * cd)) then 1 else 0)
      done;
      if !j <> 0 then
        match ctable.(!j) with
        | Some (ax, ay) -> wadd_affine fa acc ax ay
        | None -> () (* entry is the point at infinity; adding it is a no-op *)
    done
  end

let scalar_mult c k p =
  Obs.Kernel.(bump ec_scalar_mult);
  match c.fast with
  | None -> Reference.scalar_mult c k p
  | Some fa ->
      let acc = wpt_inf () in
      wnaf_mult fa k (wpt_of_point fa p) acc;
      point_of_wpt fa acc

let scalar_mult_base c k =
  Obs.Kernel.(bump ec_scalar_mult_base);
  match c.fast with
  | None -> Reference.scalar_mult_base c k
  | Some fa ->
      let acc = wpt_inf () in
      comb_mult c fa k acc;
      point_of_wpt fa acc

let add c p q = of_jac c (jac_add c (to_jac c p) (to_jac c q))
let double c p = of_jac c (jac_double c (to_jac c p))

let scalar_mult_base_add c u1 u2 q =
  match c.fast with
  | None -> add c (Reference.scalar_mult_base c u1) (Reference.scalar_mult c u2 q)
  | Some fa ->
      let acc = wpt_inf () and acc2 = wpt_inf () in
      comb_mult c fa u1 acc;
      wnaf_mult fa u2 (wpt_of_point fa q) acc2;
      wadd fa acc acc2.x acc2.y acc2.z;
      point_of_wpt fa acc

(* --- Curve construction --------------------------------------------------- *)

(* Five teeth: 2^5 = 32 affine table entries per curve, ~bits/5 doublings
   and at most as many mixed additions per fixed-base multiplication. The
   one-time build cost (31 additions + 31 inversions) is trivial even for
   the small simulation curves generated in bulk. *)
let comb_teeth = 5

(* Built over [Bignum.Field] (the seed-era formulas), then stored as
   Montgomery residues. Its inversions go through the counted
   [Bignum.pow_mod_ctx]; building it on the ladder instead would change
   the [kernel.pow_mod] count of every run that builds a curve. *)
let build_comb c f =
  let nbits = max 1 (Bignum.num_bits c.n) in
  let w = comb_teeth in
  let d = (nbits + w - 1) / w in
  let g = to_jac c (Affine (c.gx, c.gy)) in
  (* rows.(k) = 2^(k·d) · G *)
  let rows = Array.make w g in
  for k = 1 to w - 1 do
    let x = ref rows.(k - 1) in
    for _ = 1 to d do
      x := jac_double c !x
    done;
    rows.(k) <- !x
  done;
  let tbl = Array.make (1 lsl w) (jac_inf c) in
  for j = 1 to (1 lsl w) - 1 do
    let low = j land -j in
    let k = ref 0 in
    let v = ref low in
    while !v > 1 do
      v := !v lsr 1;
      incr k
    done;
    tbl.(j) <- (if j = low then rows.(!k) else jac_add c tbl.(j - low) rows.(!k))
  done;
  let residue v = W.of_bignum f v in
  let ctable =
    Array.map
      (fun jp ->
        match of_jac c jp with
        | Inf -> None
        | Affine (x, y) -> Some (residue x, residue y))
      tbl
  in
  { cw = w; cd = d; ctable }

let p256_prime = Bignum.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"

(* The curve record without the one-word ladder, so every multiplication
   runs on {!Reference}. *)
let plain_curve ~name ~p ~a ~b ~gx ~gy ~n ~h =
  let fctx = F.create p in
  {
    name;
    fctx;
    a = F.of_bignum fctx a;
    b = F.of_bignum fctx b;
    a_is_minus3 = Bignum.equal a (Bignum.sub_int p 3);
    gx;
    gy;
    n;
    h;
    order = limb_order n;
    fast = None;
  }

let make_curve ~name ~p ~a ~b ~gx ~gy ~n ~h =
  let word =
    if Bignum.equal p p256_prime then None
    else
      match W.create p with
      | f -> Some f
      | exception Invalid_argument _ ->
          invalid_arg "Ec.make_curve: field prime must be P-256's or an odd prime below 2^61"
  in
  let c = plain_curve ~name ~p ~a ~b ~gx ~gy ~n ~h in
  match word with
  | None -> c
  | Some f ->
      let order =
        match W.create n with nf -> word_order nf | exception Invalid_argument _ -> c.order
      in
      {
        c with
        order;
        fast = Some { f; ca = W.of_bignum f a; cb = W.of_bignum f b; comb = build_comb c f };
      }

let order c = c.order

let mod_order_inverse c a =
  match c.order with Order o -> o.to_bignum (o.inv (o.of_bignum a))

(* NIST P-256 (secp256r1) domain parameters; the test suite validates them
   structurally (base point on curve, n * G = infinity, p and n prime). *)
let p256 =
  let p = p256_prime in
  make_curve ~name:"secp256r1" ~p
    ~a:(Bignum.sub_int p 3)
    ~b:(Bignum.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
    ~gx:(Bignum.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
    ~gy:(Bignum.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
    ~n:(Bignum.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
    ~h:1

(* y^2 = x^3 + ax + b on residues. *)
let won_curve fa x y =
  let f = fa.f in
  W.sqr f y = W.add f (W.mul f (W.sqr f x) x) (W.add f (W.mul f fa.ca x) fa.cb)

let on_curve c = function
  | Inf -> true
  | Affine (x, y) -> (
      match c.fast with
      | Some fa -> won_curve fa (W.of_bignum fa.f x) (W.of_bignum fa.f y)
      | None ->
          let fctx = c.fctx in
          let xf = F.of_bignum fctx x and yf = F.of_bignum fctx y in
          let lhs = F.sqr fctx yf in
          let rhs =
            F.add fctx (F.mul fctx (F.sqr fctx xf) xf) (F.add fctx (F.mul fctx c.a xf) c.b)
          in
          F.equal lhs rhs)

let neg c = function
  | Inf -> Inf
  | Affine (_, y) as pt when Bignum.is_zero y -> pt (* 2-torsion: its own inverse *)
  | Affine (x, y) -> Affine (x, Bignum.sub (curve_p c) y)

(* Whether h·Q = O for the curve's cofactor h > 1, i.e. Q lies in the
   small subgroup a peer could confine a shared secret to. Left-to-right
   double-and-add over h's bits (two doublings for h = 4) on the ladder,
   outside the counted kernels so the [kernel.ec_*] counters see only
   real multiplications. *)
let small_order c fa q =
  c.h > 1
  &&
  let acc = { x = q.x; y = q.y; z = q.z } in
  let top = ref 0 in
  while c.h lsr (!top + 1) > 0 do
    incr top
  done;
  for i = !top - 1 downto 0 do
    wdbl fa acc;
    if (c.h lsr i) land 1 = 1 then wadd fa acc q.x q.y q.z
  done;
  acc.z = 0

(* --- Small-curve generation ----------------------------------------------
   For p = 4q - 1 with p, q prime (so p = 3 mod 4), the curve
   y^2 = x^3 + x over F_p is supersingular with exactly p + 1 = 4q points.
   Clearing the cofactor 4 from any point lands in a subgroup of prime
   order q. Square roots use z^((p+1)/4), valid because p = 3 mod 4. *)
let generate_small_cache : (int * string, curve) Hashtbl.t = Hashtbl.create 8

(* Guards [generate_small_cache], as [Dh.generate]'s lock guards its
   cache: traffic shards build their world replicas, hence the
   simulation curves, on parallel domains. *)
let generate_small_lock = Mutex.create ()

let generate_small_uncached ~bits ~seed =
  if bits < 24 || bits > W.max_bits then invalid_arg "Ec.generate_small: bits out of range";
  let rng = Rng.create ~seed:(Printf.sprintf "ec-curve:%s:%d" seed bits) in
  let rec find_p () =
    let raw = Bignum.of_bytes_be (Rng.generate rng ((bits + 7) / 8)) in
    let q =
      Bignum.add
        (Bignum.rem raw (Bignum.shift_left Bignum.one (bits - 3)))
        (Bignum.shift_left Bignum.one (bits - 3))
    in
    let q = if Bignum.is_even q then Bignum.add_int q 1 else q in
    if not (Dh.is_probably_prime ~rounds:16 ~rng q) then find_p ()
    else
      let p = Bignum.sub_int (Bignum.shift_left q 2) 1 in
      if Dh.is_probably_prime ~rounds:16 ~rng p then (p, q) else find_p ()
  in
  let p, q = find_p () in
  let fctx = F.create p in
  let sqrt_exp = Bignum.shift_right (Bignum.add_int p 1) 2 in
  let legendre_exp = Bignum.shift_right (Bignum.sub_int p 1) 1 in
  let curve_rhs xf = F.add fctx (F.mul fctx (F.sqr fctx xf) xf) xf in
  let name = Printf.sprintf "sim-ss%d(%s)" bits seed in
  let rec find_g () =
    let x = Rng.bignum_below rng p in
    let xf = F.of_bignum fctx x in
    let z = curve_rhs xf in
    if F.is_zero z then find_g ()
    else if not (F.equal (F.pow fctx z legendre_exp) (F.one fctx)) then find_g ()
    else begin
      let yf = F.pow fctx z sqrt_exp in
      let y = F.to_bignum fctx yf in
      let c =
        plain_curve ~name ~p ~a:Bignum.one ~b:Bignum.zero ~gx:(F.to_bignum fctx xf) ~gy:y ~n:q
          ~h:4
      in
      (* Clear the cofactor to land in the order-q subgroup, on the plain
         ladder: the fixed-base comb is built once, around the cleared
         point. *)
      match scalar_mult c (Bignum.of_int 4) (base_point c) with
      | Inf -> find_g ()
      | Affine (gx, gy) -> make_curve ~name ~p ~a:Bignum.one ~b:Bignum.zero ~gx ~gy ~n:q ~h:4
    end
  in
  find_g ()

let generate_small ~bits ~seed =
  let cached =
    Mutex.protect generate_small_lock (fun () ->
        Hashtbl.find_opt generate_small_cache (bits, seed))
  in
  match cached with
  | Some c -> c
  | None ->
      (* Search outside the lock; the curve is deterministic in
         (bits, seed), and the first writer wins so every caller shares
         one physical curve (and its comb). *)
      let c = generate_small_uncached ~bits ~seed in
      Mutex.protect generate_small_lock (fun () ->
          match Hashtbl.find_opt generate_small_cache (bits, seed) with
          | Some c -> c
          | None ->
              Hashtbl.replace generate_small_cache (bits, seed) c;
              c)

(* --- Key exchange --------------------------------------------------------- *)

type keypair = { curve : curve; priv : Bignum.t; pub : point }

let keypair_of_private curve priv =
  if Bignum.is_zero priv || Bignum.compare priv curve.n >= 0 then
    invalid_arg "Ec.keypair_of_private: scalar outside [1, n-1]";
  { curve; priv; pub = scalar_mult_base curve priv }

let gen_keypair curve rng = keypair_of_private curve (Rng.bignum_in_group rng curve.n)

let field_len c = (Bignum.num_bits (curve_p c) + 7) / 8

(* Uncompressed SEC1 point encoding: 0x04 || X || Y. *)
let point_bytes c = function
  | Inf -> "\x00"
  | Affine (x, y) ->
      let l = field_len c in
      "\x04" ^ Bignum.to_bytes_be ~len:l x ^ Bignum.to_bytes_be ~len:l y

(* The [l]-byte big-endian integer at [pos], for [l <= 8]; -1 when it is
   2^62 or more, which no one-word field element is. *)
let word_at s pos l =
  if l = 8 && Char.code s.[pos] >= 0x40 then -1
  else begin
    let v = ref 0 in
    for i = pos to pos + l - 1 do
      v := (!v lsl 8) lor Char.code s.[i]
    done;
    !v
  end

let word_bytes ~len v = String.init len (fun i -> Char.chr ((v lsr (8 * (len - 1 - i))) land 0xff))

let not_below_prime = Error "ec: point coordinate not below the field prime"

(* SEC 1 v2 §2.3.4: each coordinate must be a field element, so one
   point has exactly one encoding. On a one-word curve the coordinates
   are read straight into ints and checked on residues. *)
let point_of_bytes c s =
  if s = "\x00" then Ok Inf
  else
    let l = field_len c in
    if String.length s <> 1 + (2 * l) || s.[0] <> '\x04' then Error "ec: bad point encoding"
    else
      match c.fast with
      | Some fa ->
          let p = W.modulus fa.f in
          let x = word_at s 1 l and y = word_at s (1 + l) l in
          if x < 0 || y < 0 || x >= p || y >= p then not_below_prime
          else if won_curve fa (W.of_int fa.f x) (W.of_int fa.f y) then
            Ok (Affine (Bignum.of_int x, Bignum.of_int y))
          else Error "ec: point not on curve"
      | None ->
          let x = Bignum.of_bytes_be (String.sub s 1 l) in
          let y = Bignum.of_bytes_be (String.sub s (1 + l) l) in
          let p = curve_p c in
          if Bignum.compare x p >= 0 || Bignum.compare y p >= 0 then not_below_prime
          else
            let pt = Affine (x, y) in
            if on_curve c pt then Ok pt else Error "ec: point not on curve"

let public_bytes kp = point_bytes kp.curve kp.pub

(* A point killed by the cofactor would confine the secret to a handful
   of values, and which of them (or whether infinity) depends on the
   private key's low bits. TLS uses the x-coordinate of the shared
   point. On a one-word curve the peer's point is converted to residues
   once, and checked, multiplied and encoded from there. *)
let agree c priv ~peer_pub =
  match (peer_pub, c.fast) with
  | Inf, _ -> Error "ec: peer public is infinity"
  | Affine (x, y), Some fa ->
      let f = fa.f in
      let q = { x = W.of_bignum f x; y = W.of_bignum f y; z = W.one f } in
      if not (won_curve fa q.x q.y) then Error "ec: peer point not on curve"
      else if small_order c fa q then Error "ec: peer point of small order"
      else begin
        Obs.Kernel.(bump ec_scalar_mult);
        let acc = wpt_inf () in
        wnaf_mult fa priv q acc;
        if acc.z = 0 then Error "ec: degenerate shared point"
        else
          let zinv = W.inv f acc.z in
          Ok (word_bytes ~len:(field_len c) (W.to_int f (W.mul f acc.x (W.sqr f zinv))))
      end
  | Affine _, None -> (
      if not (on_curve c peer_pub) then Error "ec: peer point not on curve"
      else if c.h > 1 && Reference.scalar_mult c (Bignum.of_int c.h) peer_pub = Inf then
        Error "ec: peer point of small order"
      else
        match scalar_mult c priv peer_pub with
        | Inf -> Error "ec: degenerate shared point"
        | Affine (x, _) -> Ok (Bignum.to_bytes_be ~len:(field_len c) x))

let shared_secret kp ~peer_pub = agree kp.curve kp.priv ~peer_pub
