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

val p256 : curve
(** NIST P-256 / secp256r1, the dominant TLS ECDHE curve of the study
    period. *)

val generate_small : bits:int -> seed:string -> curve
(** Deterministically build a supersingular curve y² = x³ + x over
    p = 4q − 1 (p, q prime) with base point of prime order q. Small sizes
    (24–128 bits) keep large simulations tractable; see DESIGN.md. *)

val mod_order_inverse : curve -> Bignum.t -> Bignum.t
(** Inverse modulo the (prime) group order, with a cached Montgomery
    context. Raises [Invalid_argument] on zero. *)

val on_curve : curve -> point -> bool
val add : curve -> point -> point -> point
val double : curve -> point -> point

val neg : curve -> point -> point
(** The additive inverse: [Affine (x, p − y)] (points with [y = 0] are
    their own inverse, as is infinity). *)

val scalar_mult : curve -> Bignum.t -> point -> point
(** Width-w NAF double-and-add, entirely in Jacobian coordinates with a
    single affine conversion at the end. *)

val scalar_mult_base : curve -> Bignum.t -> point
(** Multiplication of the base point via the curve's fixed-base comb
    (built once in [make_curve]); scalars wider than the comb covers fall
    back to {!scalar_mult}. *)

val scalar_mult_base_add : curve -> Bignum.t -> Bignum.t -> point -> point
(** [scalar_mult_base_add c u1 u2 q] is [u1·G + u2·Q] with the sum formed
    in Jacobian coordinates, saving an affine conversion (a field
    inversion) per ECDSA verification. *)

(** Seed-era bit-at-a-time double-and-add, kept verbatim as the
    semantic baseline for the property suite and the bench harness. *)
module Reference : sig
  val scalar_mult : curve -> Bignum.t -> point -> point
  val scalar_mult_base : curve -> Bignum.t -> point
end

type keypair

val gen_keypair : curve -> Drbg.t -> keypair

val point_bytes : curve -> point -> string
(** Uncompressed SEC1 encoding [04 || X || Y] ([00] for infinity). *)

val point_of_bytes : curve -> string -> (point, string) result
(** Rejects encodings of points not on the curve. *)

val public_bytes : keypair -> string

val shared_secret : keypair -> peer_pub:point -> (string, string) result
(** The x-coordinate of the shared point, as TLS uses it. Rejects
    off-curve and degenerate peer values. *)
