(* Elliptic-curve groups in short Weierstrass form y^2 = x^3 + ax + b over
   a prime field, with Jacobian-coordinate point arithmetic.

   Two kinds of curves are provided, mirroring {!Dh}: [p256] is the real
   NIST P-256 curve (the dominant TLS ECDHE curve in 2016), used by tests,
   examples and benches; [generate_small ~bits ~seed] deterministically
   builds a small supersingular curve (y^2 = x^3 + x over p = 4q - 1 with
   q prime, group order 4q) so simulation sweeps can run millions of
   handshakes. Both are real EC groups exercising the same code path; the
   small curves' cryptographic weakness (MOV) is irrelevant to the
   measurements, as discussed in DESIGN.md.

   Scalar multiplication is the campaign's hottest kernel (one or two per
   simulated handshake), so it stays entirely in Jacobian coordinates:
   [scalar_mult] recodes the scalar in width-w NAF against a table of odd
   multiples, and [scalar_mult_base] walks a per-curve fixed-base comb of
   affine points (built once in [make_curve]) with mixed additions. The
   ladders run over a destination-passing field backend ({!fops}): the
   specialized {!P256_field} (Solinas reduction, no Montgomery form) when
   the curve's field prime is the NIST P-256 prime, and the one-word
   Montgomery {!Word_field} for every prime below 2^61 (the simulation
   curves) — so the inner loop does no per-operation allocation at all.
   [make_curve] refuses any other prime. [Bignum.Field] serves only curve
   construction, [on_curve], [add]/[double] and the seed-era
   double-and-add loop kept in {!Reference} as the semantic baseline for
   property tests and the bench harness.

   Arithmetic is not constant-time; this library measures protocol
   behaviour, it does not defend live traffic. *)

module F = Bignum.Field

type curve = {
  name : string;
  fctx : F.ctx;
  a : F.fe;
  b : F.fe;
  a_is_minus3 : bool;
  word : Word_field.t option; (* [None]: the P-256 prime, Solinas backend *)
  ca : int array; (* [a] in the ladder backend's representation *)
  gx : Bignum.t;
  gy : Bignum.t;
  n : Bignum.t; (* order of the base point *)
  h : int; (* cofactor *)
  n_mont : Bignum.mont Lazy.t; (* cached context for mod-n arithmetic (ECDSA) *)
  comb : comb; (* fixed-base comb for [scalar_mult_base], built eagerly *)
}

(* Lim–Lee comb over the base point: [ctable.(j)] is the affine form of
   Σ_{k ∈ bits j} 2^(k·cd) · G ([None] for the point at infinity, which a
   tooth pattern can hit when the implied scalar is a multiple of n).
   Entries are stored in the curve's backend representation (one-word
   Montgomery residues for simulation curves, Solinas limbs for P-256),
   so every comb addition is a mixed addition with no conversion. *)
and comb = { cw : int; cd : int; ctable : (int array * int array) option array }

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

(* --- Field backend dispatch -----------------------------------------------

   Both field representations are raw [int array]s (nine 29-bit Solinas
   limbs for P-256, a single Montgomery residue for {!Word_field}
   curves), so the point formulas below are written once against a small
   dispatch layer: a variant names the backend, and every op is a
   module-level function that branches on it once — a perfectly-predicted
   branch plus a direct call on each arm, measurably cheaper in the
   ladder than a record of closures. Every op writes its destination in
   place and allocates nothing; destinations may alias operands. *)

type fops =
  | P256 of P256_field.state
  | Word of Word_field.t

let backend_width = function P256 _ -> P256_field.words | Word _ -> 1

(* A value in the representation of the curve's backend ([curve.word]). *)
let backend_of_bignum word v =
  match word with
  | Some f -> [| Word_field.of_bignum f v |]
  | None -> P256_field.of_bignum v

(* A loop rather than [Array.blit]: the C call dominates a one-word copy. *)
let gblit r dst =
  for i = 0 to Array.length r - 1 do
    dst.(i) <- r.(i)
  done

let fmul o dst a b =
  match o with
  | P256 st -> P256_field.mul st dst a b
  | Word f -> dst.(0) <- Word_field.mul f a.(0) b.(0)

let fsqr o dst a =
  match o with
  | P256 st -> P256_field.sqr st dst a
  | Word f -> dst.(0) <- Word_field.sqr f a.(0)

let fadd o dst a b =
  match o with
  | P256 _ -> P256_field.add dst a b
  | Word f -> dst.(0) <- Word_field.add f a.(0) b.(0)

let fsub o dst a b =
  match o with
  | P256 _ -> P256_field.sub dst a b
  | Word f -> dst.(0) <- Word_field.sub f a.(0) b.(0)

let fmuls o dst a k =
  match o with
  | P256 _ -> P256_field.mul_small dst a k
  | Word f -> dst.(0) <- Word_field.mul_small f a.(0) k

let fneg o dst a =
  match o with
  | P256 _ -> P256_field.neg dst a
  | Word f -> dst.(0) <- Word_field.neg f a.(0)

let finv o dst a =
  match o with
  | P256 st -> P256_field.inv st dst a
  | Word f -> dst.(0) <- Word_field.inv f a.(0)

let fz o a = match o with P256 _ -> P256_field.is_zero a | Word _ -> a.(0) = 0
let feq o a b = match o with P256 _ -> P256_field.equal a b | Word _ -> a.(0) = b.(0)

let fone o dst =
  match o with
  | P256 _ -> P256_field.set_one dst
  | Word f -> dst.(0) <- Word_field.one f

let fto o a =
  match o with
  | P256 _ -> P256_field.to_bignum a
  | Word f -> Word_field.to_bignum f a.(0)

(* A mutable Jacobian point over the backend representation. The array
   fields are mutable so a table entry can be viewed through a negated-y
   scratch buffer without copying (wNAF negative digits). *)
type jpt = {
  mutable jx : int array;
  mutable jy : int array;
  mutable jz : int array;
  mutable jinf : bool;
}

(* Per-call workspace: the backend ops plus temporaries for the point
   formulas. Never shared across domains (parallel campaigns run one
   workspace per call). *)
type ws = {
  o : fops;
  t1 : int array;
  t2 : int array;
  t3 : int array;
  t4 : int array;
  t5 : int array;
  t6 : int array;
  t7 : int array;
  nbuf : int array; (* negated y for wNAF table lookups *)
  tneg : jpt; (* view of a table entry with y := nbuf *)
}

let jpt_make o =
  let w = backend_width o in
  { jx = Array.make w 0; jy = Array.make w 0; jz = Array.make w 0; jinf = true }

let jpt_blit dst src =
  gblit src.jx dst.jx;
  gblit src.jy dst.jy;
  gblit src.jz dst.jz;
  dst.jinf <- src.jinf

let make_ws c =
  let o =
    match c.word with Some f -> Word f | None -> P256 (P256_field.create_state ())
  in
  let mk () = Array.make (backend_width o) 0 in
  {
    o;
    t1 = mk ();
    t2 = mk ();
    t3 = mk ();
    t4 = mk ();
    t5 = mk ();
    t6 = mk ();
    t7 = mk ();
    nbuf = mk ();
    tneg = { jx = mk (); jy = mk (); jz = mk (); jinf = false };
  }

let jpt_of_point c ws dst = function
  | Inf -> dst.jinf <- true
  | Affine (x, y) ->
      dst.jx <- backend_of_bignum c.word x;
      dst.jy <- backend_of_bignum c.word y;
      fone ws.o dst.jz;
      dst.jinf <- false

let point_of_jpt ws j =
  if j.jinf || fz ws.o j.jz then Inf
  else begin
    let o = ws.o in
    finv o ws.t1 j.jz;
    fsqr o ws.t2 ws.t1;
    fmul o ws.t3 j.jx ws.t2;
    fmul o ws.t4 ws.t2 ws.t1;
    fmul o ws.t5 j.jy ws.t4;
    Affine (fto o ws.t3, fto o ws.t5)
  end

(* p <- 2p, in place. Curves with a = -3 (P-256 and friends) take the
   3M + 5S dbl-2001-b route:
     delta = z^2, gamma = y^2, beta = x*gamma,
     alpha = 3(x - delta)(x + delta),
     x' = alpha^2 - 8 beta, z' = (y + z)^2 - gamma - delta,
     y' = alpha(4 beta - x') - 8 gamma^2.
   Other curves keep the general dbl-1986-cc formulas (as [jac_double]). *)
let rec jpt_dbl c ws p =
  if p.jinf then ()
  else if fz ws.o p.jy then p.jinf <- true
  else
    match ws.o with
    | P256 st when c.a_is_minus3 ->
        (* One direct call into the fused backend kernel instead of
           fourteen dispatched field ops. *)
        P256_field.point_dbl st p.jx p.jy p.jz
    | _ -> jpt_dbl_ops c ws p

and jpt_dbl_ops c ws p =
  if c.a_is_minus3 then begin
    let o = ws.o in
    fsqr o ws.t1 p.jz (* delta *);
    fsqr o ws.t2 p.jy (* gamma *);
    fmul o ws.t3 p.jx ws.t2 (* beta *);
    fsub o ws.t4 p.jx ws.t1;
    fadd o ws.t5 p.jx ws.t1;
    fmul o ws.t4 ws.t4 ws.t5;
    fmuls o ws.t4 ws.t4 3 (* alpha *);
    fadd o ws.t5 p.jy p.jz;
    fsqr o ws.t5 ws.t5;
    fsub o ws.t5 ws.t5 ws.t2;
    fsub o ws.t5 ws.t5 ws.t1 (* z' = (y+z)^2 - gamma - delta *);
    fsqr o ws.t6 ws.t4;
    fmuls o ws.t7 ws.t3 8;
    fsub o p.jx ws.t6 ws.t7 (* x' = alpha^2 - 8 beta *);
    fmuls o ws.t6 ws.t3 4;
    fsub o ws.t6 ws.t6 p.jx;
    fmul o ws.t6 ws.t4 ws.t6 (* alpha (4 beta - x') *);
    fsqr o ws.t7 ws.t2;
    fmuls o ws.t7 ws.t7 8 (* 8 gamma^2 *);
    fsub o p.jy ws.t6 ws.t7;
    gblit ws.t5 p.jz
  end
  else begin
    let o = ws.o in
    fsqr o ws.t1 p.jy (* y^2 *);
    fmul o ws.t2 p.jx ws.t1;
    fmuls o ws.t2 ws.t2 4 (* s = 4xy^2 *);
    fsqr o ws.t4 p.jx;
    fmuls o ws.t4 ws.t4 3 (* 3x^2 *);
    fsqr o ws.t5 p.jz;
    fsqr o ws.t5 ws.t5 (* z^4 *);
    fmul o ws.t6 c.ca ws.t5;
    fadd o ws.t3 ws.t4 ws.t6 (* m = 3x^2 + a z^4 *);
    fmul o ws.t7 p.jy p.jz;
    fmuls o ws.t7 ws.t7 2 (* z' = 2yz *);
    fsqr o ws.t5 ws.t3;
    fmuls o ws.t6 ws.t2 2;
    fsub o p.jx ws.t5 ws.t6 (* x' = m^2 - 2s *);
    fsub o ws.t5 ws.t2 p.jx;
    fmul o ws.t6 ws.t3 ws.t5 (* m(s - x') *);
    fsqr o ws.t5 ws.t1;
    fmuls o ws.t5 ws.t5 8 (* 8y^4 *);
    fsub o p.jy ws.t6 ws.t5;
    gblit ws.t7 p.jz
  end

(* p <- p + q, in place; [q] is only read and must not share buffers with
   [p]. Same add-1986-cc formulas as [jac_add]. *)
let rec jpt_add c ws p q =
  if q.jinf then ()
  else if p.jinf then jpt_blit p q
  else
    match ws.o with
    | P256 st -> (
        match P256_field.point_add st p.jx p.jy p.jz q.jx q.jy q.jz with
        | 1 -> jpt_dbl c ws p
        | 2 -> p.jinf <- true
        | _ -> ())
    | Word _ -> jpt_add_ops c ws p q

and jpt_add_ops c ws p q =
  begin
    let o = ws.o in
    fsqr o ws.t1 p.jz (* z1^2 *);
    fsqr o ws.t2 q.jz (* z2^2 *);
    fmul o ws.t3 p.jx ws.t2 (* u1 *);
    fmul o ws.t4 q.jx ws.t1 (* u2 *);
    fmul o ws.t5 ws.t2 q.jz;
    fmul o ws.t5 p.jy ws.t5 (* s1 = y1 z2^3 *);
    fmul o ws.t6 ws.t1 p.jz;
    fmul o ws.t6 q.jy ws.t6 (* s2 = y2 z1^3 *);
    if feq o ws.t3 ws.t4 then
      if feq o ws.t5 ws.t6 then jpt_dbl c ws p else p.jinf <- true
    else begin
      fsub o ws.t4 ws.t4 ws.t3 (* h = u2 - u1 *);
      fsub o ws.t6 ws.t6 ws.t5 (* r = s2 - s1 *);
      fmul o ws.t7 p.jz q.jz;
      fmul o p.jz ws.t7 ws.t4 (* z3 = h z1 z2 *);
      fsqr o ws.t1 ws.t4 (* h^2 *);
      fmul o ws.t2 ws.t1 ws.t4 (* h^3 *);
      fmul o ws.t7 ws.t3 ws.t1 (* u1 h^2 *);
      fsqr o ws.t1 ws.t6;
      fsub o ws.t1 ws.t1 ws.t2 (* r^2 - h^3 *);
      fmuls o ws.t4 ws.t7 2;
      fsub o p.jx ws.t1 ws.t4 (* x3 = r^2 - h^3 - 2 u1 h^2 *);
      fsub o ws.t1 ws.t7 p.jx;
      fmul o ws.t3 ws.t6 ws.t1 (* r (u1 h^2 - x3) *);
      fmul o ws.t1 ws.t5 ws.t2 (* s1 h^3 *);
      fsub o p.jy ws.t3 ws.t1
    end
  end

(* p <- p + (ax, ay) with the second operand affine (Z = 1): saves four
   multiplications and a squaring over [jpt_add]; it is what makes the
   comb's affine table pay. *)
let rec jpt_add_affine c ws p ax ay =
  let o = ws.o in
  if p.jinf then begin
    gblit ax p.jx;
    gblit ay p.jy;
    fone o p.jz;
    p.jinf <- false
  end
  else
    match o with
    | P256 st -> (
        match P256_field.point_add_affine st p.jx p.jy p.jz ax ay with
        | 1 -> jpt_dbl c ws p
        | 2 -> p.jinf <- true
        | _ -> ())
    | Word _ -> jpt_add_affine_ops c ws p ax ay

and jpt_add_affine_ops c ws p ax ay =
  let o = ws.o in
  begin
    fsqr o ws.t1 p.jz (* z1^2 *);
    fmul o ws.t2 ax ws.t1 (* u2 *);
    fmul o ws.t3 ws.t1 p.jz;
    fmul o ws.t3 ay ws.t3 (* s2 = ay z1^3 *);
    if feq o p.jx ws.t2 then
      if feq o p.jy ws.t3 then jpt_dbl c ws p else p.jinf <- true
    else begin
      fsub o ws.t2 ws.t2 p.jx (* h *);
      fsub o ws.t3 ws.t3 p.jy (* r *);
      fmul o p.jz p.jz ws.t2 (* z3 = z1 h *);
      fsqr o ws.t4 ws.t2 (* h^2 *);
      fmul o ws.t5 ws.t4 ws.t2 (* h^3 *);
      fmul o ws.t6 p.jx ws.t4 (* v = x1 h^2 *);
      fsqr o ws.t4 ws.t3;
      fsub o ws.t4 ws.t4 ws.t5 (* r^2 - h^3 *);
      fmuls o ws.t7 ws.t6 2;
      fsub o p.jx ws.t4 ws.t7 (* x3 *);
      fsub o ws.t4 ws.t6 p.jx;
      fmul o ws.t6 ws.t3 ws.t4 (* r (v - x3) *);
      fmul o ws.t4 p.jy ws.t5 (* y1 h^3 *);
      fsub o p.jy ws.t6 ws.t4
    end
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

(* acc <- k * p over the workspace backend. [p] is only read. *)
let jac_scalar_mult_ws c ws k p acc =
  if Bignum.is_zero k || p.jinf then acc.jinf <- true
  else begin
    let o = ws.o in
    let w = wnaf_width (Bignum.num_bits k) in
    (* Odd multiples P, 3P, 5P, …, (2^w - 1)P. *)
    let tbl = Array.init (1 lsl (w - 1)) (fun _ -> jpt_make o) in
    jpt_blit tbl.(0) p;
    let p2 = jpt_make o in
    jpt_blit p2 p;
    jpt_dbl c ws p2;
    for i = 1 to Array.length tbl - 1 do
      jpt_blit tbl.(i) tbl.(i - 1);
      jpt_add c ws tbl.(i) p2
    done;
    let digits, len = wnaf_digits ~w k in
    acc.jinf <- true;
    for i = len - 1 downto 0 do
      jpt_dbl c ws acc;
      let d = digits.(i) in
      if d > 0 then jpt_add c ws acc tbl.((d - 1) / 2)
      else if d < 0 then begin
        (* View the table entry through the negated-y scratch: no copy,
           no allocation. *)
        let q = tbl.((-d - 1) / 2) in
        let tneg = ws.tneg in
        fneg o ws.nbuf q.jy;
        tneg.jx <- q.jx;
        tneg.jy <- ws.nbuf;
        tneg.jz <- q.jz;
        tneg.jinf <- q.jinf;
        jpt_add c ws acc tneg
      end
    done
  end

let scalar_mult c k p =
  Obs.Kernel.(bump ec_scalar_mult);
  match p with
  | Inf -> Inf
  | Affine _ ->
      let ws = make_ws c in
      let pj = jpt_make ws.o in
      jpt_of_point c ws pj p;
      let acc = jpt_make ws.o in
      jac_scalar_mult_ws c ws k pj acc;
      point_of_jpt ws acc

(* acc <- k * G via the fixed-base comb. *)
let jac_scalar_mult_base_ws c ws k acc =
  let { cw; cd; ctable } = c.comb in
  if Bignum.is_zero k then acc.jinf <- true
  else if Bignum.num_bits k > cw * cd then begin
    (* Wider than the comb covers (scalars beyond the group order);
       correctness over speed. *)
    let g = jpt_make ws.o in
    jpt_of_point c ws g (Affine (c.gx, c.gy));
    jac_scalar_mult_ws c ws k g acc
  end
  else begin
    acc.jinf <- true;
    for i = cd - 1 downto 0 do
      jpt_dbl c ws acc;
      let j = ref 0 in
      for t = cw - 1 downto 0 do
        j := (!j lsl 1) lor (if Bignum.test_bit k (i + (t * cd)) then 1 else 0)
      done;
      if !j <> 0 then
        match ctable.(!j) with
        | Some (ax, ay) -> jpt_add_affine c ws acc ax ay
        | None -> () (* entry is the point at infinity; adding it is a no-op *)
    done
  end

let scalar_mult_base c k =
  Obs.Kernel.(bump ec_scalar_mult_base);
  let ws = make_ws c in
  let acc = jpt_make ws.o in
  jac_scalar_mult_base_ws c ws k acc;
  point_of_jpt ws acc

let scalar_mult_base_add c u1 u2 q =
  let ws = make_ws c in
  let acc = jpt_make ws.o in
  jac_scalar_mult_base_ws c ws u1 acc;
  let qj = jpt_make ws.o in
  jpt_of_point c ws qj q;
  let acc2 = jpt_make ws.o in
  jac_scalar_mult_ws c ws u2 qj acc2;
  jpt_add c ws acc acc2;
  point_of_jpt ws acc

(* --- Curve construction --------------------------------------------------- *)

(* Five teeth: 2^5 = 32 affine table entries per curve, ~bits/5 doublings
   and at most as many mixed additions per fixed-base multiplication. The
   one-time build cost (31 additions + 31 inversions) is trivial even for
   the small simulation curves generated in bulk. *)
let comb_teeth = 5

let build_comb c =
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
  let ctable =
    Array.map
      (fun jp ->
        if jac_is_inf jp then None
        else begin
          let f = c.fctx in
          let zinv = F.inv f jp.z in
          let zinv2 = F.sqr f zinv in
          let ax = F.mul f jp.x zinv2 in
          let ay = F.mul f jp.y (F.mul f zinv2 zinv) in
          (* Store in the curve's ladder backend representation. *)
          let b v = backend_of_bignum c.word (F.to_bignum f v) in
          Some (b ax, b ay)
        end)
      tbl
  in
  { cw = w; cd = d; ctable }

let make_curve ~name ~p ~a ~b ~gx ~gy ~n ~h =
  let word =
    if Bignum.equal p P256_field.modulus then None
    else
      match Word_field.create p with
      | f -> Some f
      | exception Invalid_argument _ ->
          invalid_arg "Ec.make_curve: field prime must be P-256's or an odd prime below 2^61"
  in
  let fctx = F.create p in
  let a_fe = F.of_bignum fctx a in
  let c0 =
    {
      name;
      fctx;
      a = a_fe;
      b = F.of_bignum fctx b;
      a_is_minus3 = Bignum.equal a (Bignum.sub_int p 3);
      word;
      ca = backend_of_bignum word a;
      gx;
      gy;
      n;
      h;
      n_mont = lazy (Bignum.mont_of_modulus n);
      comb = { cw = 0; cd = 0; ctable = [||] };
    }
  in
  { c0 with comb = build_comb c0 }

(* Inverse modulo the (prime) group order, with a cached Montgomery
   context — ECDSA calls this once per signature and verification. *)
let mod_order_inverse c (a : Bignum.t) =
  let a = Bignum.rem a c.n in
  if Bignum.is_zero a then invalid_arg "Ec.mod_order_inverse: zero";
  Bignum.pow_mod_ctx (Lazy.force c.n_mont) a (Bignum.sub c.n Bignum.two)

(* NIST P-256 (secp256r1) domain parameters; the test suite validates them
   structurally (base point on curve, n * G = infinity, p and n prime). *)
let p256 =
  let p = Bignum.of_hex "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff" in
  make_curve ~name:"secp256r1" ~p
    ~a:(Bignum.sub_int p 3)
    ~b:(Bignum.of_hex "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
    ~gx:(Bignum.of_hex "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
    ~gy:(Bignum.of_hex "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
    ~n:(Bignum.of_hex "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
    ~h:1

let on_curve c = function
  | Inf -> true
  | Affine (x, y) ->
      let fctx = c.fctx in
      let xf = F.of_bignum fctx x and yf = F.of_bignum fctx y in
      let lhs = F.sqr fctx yf in
      let rhs = F.add fctx (F.mul fctx (F.sqr fctx xf) xf) (F.add fctx (F.mul fctx c.a xf) c.b) in
      F.equal lhs rhs

let add c p q = of_jac c (jac_add c (to_jac c p) (to_jac c q))
let double c p = of_jac c (jac_double c (to_jac c p))

let neg c = function
  | Inf -> Inf
  | Affine (_, y) as pt when Bignum.is_zero y -> pt (* 2-torsion: its own inverse *)
  | Affine (x, y) -> Affine (x, Bignum.sub (curve_p c) y)

(* --- Seed-era reference kernel --------------------------------------------
   The pre-optimization bit-at-a-time double-and-add, kept verbatim:
   the property suite asserts the wNAF and comb paths agree with it, and
   the bench harness reports speedups against it. Do not "optimize". *)

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

(* --- Small-curve generation ----------------------------------------------
   For p = 4q - 1 with p, q prime (so p = 3 mod 4), the curve
   y^2 = x^3 + x over F_p is supersingular with exactly p + 1 = 4q points.
   Clearing the cofactor 4 from any point lands in a subgroup of prime
   order q. Square roots use z^((p+1)/4), valid because p = 3 mod 4. *)
let generate_small_cache : (int * string, curve) Hashtbl.t = Hashtbl.create 8

let generate_small_uncached ~bits ~seed =
  if bits < 24 || bits > Word_field.max_bits then
    invalid_arg "Ec.generate_small: bits out of range";
  let rng = Drbg.create ~seed:(Printf.sprintf "ec-curve:%s:%d" seed bits) in
  let rec find_p () =
    let raw = Bignum.of_bytes_be (Drbg.generate rng ((bits + 7) / 8)) in
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
    let x = Drbg.bignum_below rng p in
    let xf = F.of_bignum fctx x in
    let z = curve_rhs xf in
    if F.is_zero z then find_g ()
    else if not (F.equal (F.pow fctx z legendre_exp) (F.one fctx)) then find_g ()
    else begin
      let yf = F.pow fctx z sqrt_exp in
      let y = F.to_bignum fctx yf in
      let c =
        make_curve ~name ~p ~a:Bignum.one ~b:Bignum.zero ~gx:(F.to_bignum fctx xf) ~gy:y ~n:q
          ~h:4
      in
      (* Clear the cofactor to land in the order-q subgroup. Rebuild the
         curve around the new base point so the fixed-base comb matches. *)
      match scalar_mult c (Bignum.of_int 4) (Affine (F.to_bignum fctx xf, y)) with
      | Inf -> find_g ()
      | Affine (gx, gy) -> make_curve ~name ~p ~a:Bignum.one ~b:Bignum.zero ~gx ~gy ~n:q ~h:4
    end
  in
  find_g ()

let generate_small ~bits ~seed =
  match Hashtbl.find_opt generate_small_cache (bits, seed) with
  | Some c -> c
  | None ->
      let c = generate_small_uncached ~bits ~seed in
      Hashtbl.replace generate_small_cache (bits, seed) c;
      c

(* --- Key exchange --------------------------------------------------------- *)

type keypair = { curve : curve; priv : Bignum.t; pub : point }

let keypair_of_private curve priv =
  if Bignum.is_zero priv || Bignum.compare priv curve.n >= 0 then
    invalid_arg "Ec.keypair_of_private: scalar outside [1, n-1]";
  { curve; priv; pub = scalar_mult_base curve priv }

let gen_keypair curve rng = keypair_of_private curve (Drbg.bignum_in_group rng curve.n)

let field_len c = (Bignum.num_bits (curve_p c) + 7) / 8

(* Uncompressed SEC1 point encoding: 0x04 || X || Y. *)
let point_bytes c = function
  | Inf -> "\x00"
  | Affine (x, y) ->
      let l = field_len c in
      "\x04" ^ Bignum.to_bytes_be ~len:l x ^ Bignum.to_bytes_be ~len:l y

let point_of_bytes c s =
  if s = "\x00" then Ok Inf
  else
    let l = field_len c in
    if String.length s <> 1 + (2 * l) || s.[0] <> '\x04' then Error "ec: bad point encoding"
    else
      let x = Bignum.of_bytes_be (String.sub s 1 l) in
      let y = Bignum.of_bytes_be (String.sub s (1 + l) l) in
      let p = curve_p c in
      (* SEC 1 v2 §2.3.4: each coordinate must be a field element, so one
         point has exactly one encoding. *)
      if Bignum.compare x p >= 0 || Bignum.compare y p >= 0 then
        Error "ec: point coordinate not below the field prime"
      else
        let pt = Affine (x, y) in
        if on_curve c pt then Ok pt else Error "ec: point not on curve"

let public_bytes kp = point_bytes kp.curve kp.pub

let shared_secret kp ~peer_pub =
  match peer_pub with
  | Inf -> Error "ec: peer public is infinity"
  | Affine _ when not (on_curve kp.curve peer_pub) -> Error "ec: peer point not on curve"
  | Affine _ -> (
      (* Clear the cofactor: rejects small-subgroup confinement. *)
      let shared = scalar_mult kp.curve kp.priv peer_pub in
      match shared with
      | Inf -> Error "ec: degenerate shared point"
      | Affine (x, _) ->
          (* TLS uses the x-coordinate of the shared point. *)
          Ok (Bignum.to_bytes_be ~len:(field_len kp.curve) x))
