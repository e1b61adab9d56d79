(** Elliptic curves in short Weierstrass form over prime fields, with
    Jacobian-coordinate arithmetic. Provides the real NIST P-256 curve and
    deterministic small supersingular curves for simulation sweeps. Not
    constant-time (this library measures protocol behaviour; it does not
    protect live traffic). *)

type curve
type point = Inf | Affine of Bignum.t * Bignum.t

val curve_name : curve -> string
val curve_p : curve -> Bignum.t
val curve_order : curve -> Bignum.t
val base_point : curve -> point

val make_curve :
  name:string ->
  p:Bignum.t ->
  a:Bignum.t ->
  b:Bignum.t ->
  gx:Bignum.t ->
  gy:Bignum.t ->
  n:Bignum.t ->
  h:int ->
  curve
(** The field prime must be the P-256 prime or an odd prime below
    2{^61}; anything else raises [Invalid_argument]. A prime below 2{^61}
    gets the one-word {!Word_field} ladder and its fixed-base comb, built
    eagerly; P-256 builds no comb and runs every multiplication on
    {!Reference}. *)

val p256 : curve
(** NIST P-256 / secp256r1, the dominant TLS ECDHE curve of the study
    period. *)

val generate_small : bits:int -> seed:string -> curve
(** Deterministically build a supersingular curve y² = x³ + x over
    p = 4q − 1 (p, q prime) with base point of prime order q and cofactor
    4. Sizes of 24–61 bits keep large simulations tractable and every
    field element in one native int; other sizes raise
    [Invalid_argument]. See DESIGN.md. *)

(** Arithmetic modulo the (prime) group order n on elements of type
    ['s], each reduced mod n. [of_bignum] reduces; [inv] raises
    [Invalid_argument] on zero. *)
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

val order : curve -> order
(** The curve's mod-n arithmetic, chosen once in {!make_curve}: native
    ints on a {!Word_field} over n when n is odd and below 2{^61} (every
    simulation curve), with nothing allocated between the conversions
    and the inverse uncounted; otherwise [Bignum] limbs, whose inverse is
    a counted [Bignum.pow_mod_ctx]. Both give the same values. *)

val mod_order_inverse : curve -> Bignum.t -> Bignum.t
(** Inverse modulo the (prime) group order, through {!order}. Raises
    [Invalid_argument] on zero. *)

val on_curve : curve -> point -> bool
val add : curve -> point -> point -> point
val double : curve -> point -> point

val neg : curve -> point -> point
(** The additive inverse: [Affine (x, p − y)] (points with [y = 0] are
    their own inverse, as is infinity). *)

val scalar_mult : curve -> Bignum.t -> point -> point
(** On the one-word ladder: width-w NAF double-and-add, entirely in
    Jacobian coordinates with a single affine conversion at the end. On
    P-256: {!Reference.scalar_mult}. *)

val scalar_mult_base : curve -> Bignum.t -> point
(** On the one-word ladder: multiplication of the base point via the
    curve's fixed-base comb (built once in [make_curve]); scalars wider
    than the comb covers fall back to the wNAF ladder. On P-256:
    {!Reference.scalar_mult_base}. *)

val scalar_mult_base_add : curve -> Bignum.t -> Bignum.t -> point -> point
(** [scalar_mult_base_add c u1 u2 q] is [u1·G + u2·Q]. On the one-word
    ladder the sum is formed in Jacobian coordinates, saving an affine
    conversion (a field inversion) per ECDSA verification; on P-256 it is
    {!add} of the two {!Reference} products. *)

(** Seed-era bit-at-a-time double-and-add over [Bignum.Field], kept
    verbatim: the semantic baseline for the property suite and the bench
    harness, and the ladder P-256 runs on. Uncounted: only the public
    [scalar_mult*] functions bump the [kernel.ec_*] counters. *)
module Reference : sig
  val scalar_mult : curve -> Bignum.t -> point -> point
  val scalar_mult_base : curve -> Bignum.t -> point
end

type keypair

val gen_keypair : curve -> Rng.t -> keypair

val keypair_of_private : curve -> Bignum.t -> keypair
(** The key pair of a given private scalar (for example one generated by
    another implementation); its public point is [scalar_mult_base].
    Raises [Invalid_argument] unless the scalar is in [\[1, n-1\]]. *)

val point_bytes : curve -> point -> string
(** Uncompressed SEC1 encoding [04 || X || Y] ([00] for infinity). *)

val point_of_bytes : curve -> string -> (point, string) result
(** Rejects coordinates not below the field prime (SEC 1 v2 §2.3.4, so
    every point has one encoding) and points not on the curve. *)

val public_bytes : keypair -> string

val agree : curve -> Bignum.t -> peer_pub:point -> (string, string) result
(** [agree c priv ~peer_pub] is the x-coordinate of [priv]·Q for the
    peer's point Q, as TLS uses it. Rejects infinity, off-curve points,
    and on curves with cofactor h > 1 every point of small order
    (h·Q = O), which would confine the secret to a few values chosen by
    the private key's low bits; also rejects a degenerate (infinite)
    shared point. Every ECDH in the library, ephemeral or static, goes
    through it.

    Full SEC 1 v2 §3.2.2.1 validation (n·Q = O) is not done on cofactor
    curves: it is a second scalar multiplication per shared secret
    (about 10 µs on the 52-bit curve, about 4% of a campaign's time). So a
    mixed point (a point of order n plus one of small order) is still
    accepted, and a peer who sends one can learn the private key modulo
    h (two bits for h = 4) by trying h candidate secrets. The
    simulation's peers are honest and never send such points. *)

val shared_secret : keypair -> peer_pub:point -> (string, string) result
(** [agree] with the key pair's curve and private scalar. *)
