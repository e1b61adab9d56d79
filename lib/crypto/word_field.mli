(** Montgomery arithmetic for odd primes p < 2{^61}, one element per
    native int.

    Elements are Montgomery residues x·R mod p with R = 2{^62}, canonical
    in [\[0, p)], so [=] is field equality and [0] is the only zero.
    Operations return plain ints and allocate nothing; only the
    {!of_bignum}/{!to_bignum} conversions touch [Bignum]. {!Ec} uses this
    backend for every curve whose field prime is below 2{^61} (the
    simulation curves); see DESIGN.md for the overflow bound. *)

type t
(** A context for one modulus. Immutable; safe to share across domains. *)

val max_bits : int
(** 61: the widest modulus {!create} accepts. *)

val create : Bignum.t -> t
(** Raises [Invalid_argument] unless the modulus is odd, at least 3 and
    below 2{^61}. Primality is the caller's precondition ({!inv} relies
    on it). *)

val modulus : t -> int
(** p. *)

val of_int : t -> int -> int
(** Into Montgomery form from a non-negative int, reduced mod p. *)

val to_int : t -> int -> int
(** Out of Montgomery form: the canonical value in [\[0, p)]. *)

val of_bignum : t -> Bignum.t -> int
(** Into Montgomery form; values outside [\[0, p)] are reduced. *)

val to_bignum : t -> int -> Bignum.t

val one : t -> int
(** The residue of 1 (R mod p). *)

val mul : t -> int -> int -> int
val sqr : t -> int -> int
val add : t -> int -> int -> int
val sub : t -> int -> int -> int
val neg : t -> int -> int

val mul_small : t -> int -> int -> int
(** [mul_small f a k] is [k·a] for a small non-negative [k], by doubling
    and adding. *)

val inv : t -> int -> int
(** The inverse, by the extended Euclidean algorithm; for the prime
    moduli it requires, the same value as Fermat's a{^p-2}. Raises
    [Invalid_argument] on zero. *)
