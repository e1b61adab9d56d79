(** Arbitrary-precision unsigned integers (naturals), built from scratch
    because the sealed container has no zarith. Little-endian arrays of
    26-bit limbs; all values are immutable and canonical.

    [pow_mod] uses Montgomery (CIOS) multiplication for odd moduli, which
    covers every (EC)DH group in this project; a cached context
    ({!mont_of_modulus} + {!pow_mod_ctx}) avoids per-call setup on hot
    paths. *)

type t

val zero : t
val one : t
val two : t
val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int_opt : t -> int option
val to_int_exn : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val test_bit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val add_int : t -> int -> t
val sub_int : t -> int -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)

val rem : t -> t -> t

val pow_mod : t -> t -> t -> t
(** [pow_mod a e m] is [a{^e} mod m]. Odd moduli go through
    {!pow_mod_ctx} on a fresh context. *)

type mont
(** Cached Montgomery context for a fixed odd modulus. *)

val mont_of_modulus : t -> mont
(** Raises [Invalid_argument] if the modulus is even or zero. *)

val pow_mod_ctx : mont -> t -> t -> t
(** [pow_mod_ctx ctx a e] is [a{^e} mod m] for the context's modulus:
    native-word square-and-multiply up to 31 bits, otherwise the
    in-place sliding-window Montgomery ladder. Counted in
    [kernel.pow_mod]. *)

type fixed_base
(** A fixed-base comb table: one-time precomputation over a (context,
    base) pair that makes every subsequent exponentiation of that base
    cost ~bits/4 squarings and multiplications instead of ~bits of each.
    Used by {!Dh.gen_keypair}, where the group generator is raised to a
    fresh private exponent on every simulated handshake. *)

val fixed_base : mont -> t -> max_bits:int -> fixed_base
(** [fixed_base ctx g ~max_bits] returns the comb table for [g] covering
    exponents up to [max_bits] bits, building and caching it on [ctx] on
    first use (the cache is keyed by the base value and table geometry,
    and is safe to populate from multiple domains). Raises
    [Invalid_argument] if [max_bits <= 0]. *)

val pow_mod_fixed : fixed_base -> t -> t
(** [pow_mod_fixed fb e] is [g{^e} mod m] for the table's base and
    modulus. Exponents wider than the table covers fall back to
    {!pow_mod_ctx}. *)

(** Seed-era kernels (two-pass CIOS multiply, plain left-to-right
    square-and-multiply), kept verbatim as the semantic baseline for
    the property suite and the bench-regression harness. *)
module Reference : sig
  val pow_mod : t -> t -> t -> t
  val pow_mod_ctx : mont -> t -> t -> t
end

val mod_inverse_prime : t -> t -> t
(** [mod_inverse_prime a p] for prime [p] via Fermat's little theorem.
    Raises [Invalid_argument] if [a mod p = 0]. *)

(** Prime-field elements kept in Montgomery form, so long chains of modular
    multiplications cost one CIOS pass each. The modulus must be odd;
    callers use prime moduli. {!Ec} uses it for curve construction,
    [on_curve] and its seed-era reference, which is also P-256's ladder;
    the simulation curves' ladder runs on {!Word_field}. *)
module Field : sig
  type ctx

  type fe
  (** An element in Montgomery form. *)

  val create : t -> ctx
  val modulus : ctx -> t
  val of_bignum : ctx -> t -> fe
  val to_bignum : ctx -> fe -> t
  val zero : ctx -> fe
  val one : ctx -> fe
  val is_zero : fe -> bool
  val equal : fe -> fe -> bool
  val add : ctx -> fe -> fe -> fe
  val sub : ctx -> fe -> fe -> fe
  val mul : ctx -> fe -> fe -> fe
  val sqr : ctx -> fe -> fe

  val mul_small : ctx -> fe -> int -> fe
  (** Multiply by a small non-negative integer via repeated addition. *)

  val inv : ctx -> fe -> fe
  (** Fermat inversion; requires a prime modulus and a nonzero argument. *)

  val pow : ctx -> fe -> t -> fe
end

val of_bytes_be : string -> t
val to_bytes_be : ?len:int -> t -> string
(** Big-endian; zero-padded on the left to [len] when given. Raises
    [Invalid_argument] if the value does not fit in [len] bytes. *)

val of_hex : string -> t
val to_hex : t -> string
val of_decimal : string -> t
val to_decimal : t -> string
