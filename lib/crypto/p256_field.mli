(** Specialized arithmetic for the NIST P-256 prime field
    p = 2{^256} - 2{^224} + 2{^192} + 2{^96} - 1.

    Elements are little-endian arrays of nine 29-bit limbs, canonical in
    [\[0, p)]. All operations write into caller-provided destination
    arrays; [mul]/[sqr]/[inv] take an explicit {!state} scratch so hot
    loops allocate nothing per operation. Destinations may alias
    operands. {!Ec} selects this backend automatically when a curve's
    field prime equals {!modulus} ({!Word_field} serves every prime below
    2{^61}); {!Ec.Reference} stays the correctness oracle. *)

val words : int
(** Number of limbs in an element (9). *)

val modulus : Bignum.t
(** The P-256 prime. *)

type state
(** Per-caller scratch buffers for [mul]/[sqr]/[inv]. Cheap to create;
    must not be shared across domains. *)

val create_state : unit -> state

val zero : unit -> int array
(** A fresh element initialized to 0. *)

val of_bignum : Bignum.t -> int array
(** Values outside [\[0, p)] are reduced. *)

val to_bignum : int array -> Bignum.t
val of_bytes_be : string -> int array
val to_bytes_be : int array -> string
val copy : int array -> int array -> unit
val set_one : int array -> unit
val is_zero : int array -> bool
val equal : int array -> int array -> bool
val add : int array -> int array -> int array -> unit
val sub : int array -> int array -> int array -> unit
val neg : int array -> int array -> unit

val mul_small : int array -> int array -> int -> unit
(** [mul_small dst a k] for [0 <= k <= 8]. *)

val mul : state -> int array -> int array -> int array -> unit
val sqr : state -> int array -> int array -> unit

val inv : state -> int array -> int array -> unit
(** Fermat inversion via a fixed addition chain for p-2. Raises
    [Invalid_argument] on zero. *)

(** {2 Fused Jacobian point kernels}

    In-place point formulas over (X, Y, Z) coordinate triples, fusing the
    whole dbl-2001-b / add-1986-cc sequences into single calls so the
    scalar-multiplication ladder in {!Ec} pays no per-field-op dispatch.
    Callers handle the point at infinity and [y = 0] before calling
    [point_dbl]; the add kernels report degenerate cases via their return
    code and leave the point untouched in those cases. *)

val point_dbl : state -> int array -> int array -> int array -> unit
(** [point_dbl st x y z] doubles in place with the a = -3 formulas.
    Precondition: the point is not at infinity and [y <> 0]. *)

val point_add :
  state ->
  int array -> int array -> int array ->
  int array -> int array -> int array ->
  int
(** [point_add st px py pz qx qy qz] sets P <- P + Q and returns [0];
    returns [1] (P untouched) when P = Q — caller must double — and [2]
    (P untouched) when P = -Q — caller must set infinity. Neither point
    may be at infinity and the buffers must not alias. *)

val point_add_affine :
  state ->
  int array -> int array -> int array ->
  int array -> int array ->
  int
(** [point_add_affine st px py pz ax ay] is {!point_add} with the second
    operand affine (Z = 1); same return codes. *)
