(* ECDSA over any {!Ec} curve, hashing with SHA-256. This is the signature
   scheme behind the reproduction's certificate authority and the server's
   ServerKeyExchange signatures: real public-key authentication at
   simulation-tractable cost when instantiated over a small curve.

   One [sign] and one [verify] for every curve: the scalar formulas run
   in [Ec.order]'s mod-n arithmetic, which is native ints on a one-word
   Montgomery field for the simulation curves (no [Bignum] product,
   division or counted exponentiation per signature) and [Bignum] limbs
   on P-256. *)

module B = Bignum

type keypair = { curve : Ec.curve; priv : B.t; pub : Ec.point }
type signature = { r : B.t; s : B.t }

let gen_keypair curve rng =
  let n = Ec.curve_order curve in
  let priv = Rng.bignum_in_group rng n in
  { curve; priv; pub = Ec.scalar_mult_base curve priv }

let public_key kp = kp.pub

(* Truncate the hash to the bit length of the group order (FIPS 186-4):
   its leading bytes, shifted down to the order's width. *)
let hash_to_z curve msg =
  let nbits = B.num_bits (Ec.curve_order curve) in
  let h = Sha256.digest msg in
  if nbits >= 256 then B.of_bytes_be h
  else
    let len = (nbits + 7) / 8 in
    B.shift_right (B.of_bytes_be (String.sub h 0 len)) ((8 * len) - nbits)

(* s = k^-1 (z + r·d) mod n, in the curve's mod-n arithmetic. *)
let sign kp rng msg =
  let n = Ec.curve_order kp.curve in
  match Ec.order kp.curve with
  | Ec.Order o ->
      let z = o.of_bignum (hash_to_z kp.curve msg) in
      let d = o.of_bignum kp.priv in
      let rec attempt () =
        let k = Rng.bignum_in_group rng n in
        match Ec.scalar_mult_base kp.curve k with
        | Ec.Inf -> attempt ()
        | Ec.Affine (x, _) ->
            let r = o.of_bignum x in
            if o.is_zero r then attempt ()
            else
              let s = o.mul (o.inv (o.of_bignum k)) (o.add z (o.mul r d)) in
              if o.is_zero s then attempt () else { r = o.to_bignum r; s = o.to_bignum s }
      in
      attempt ()

(* u1·G + u2·Q with u1 = z·s^-1 and u2 = r·s^-1 mod n; valid when its x
   is r mod n. *)
let verify ~curve ~pub ~msg { r; s } =
  let n = Ec.curve_order curve in
  let in_range v = B.compare v B.zero > 0 && B.compare v n < 0 in
  in_range r && in_range s
  && Ec.on_curve curve pub
  &&
  match Ec.order curve with
  | Ec.Order o -> (
      let z = o.of_bignum (hash_to_z curve msg) and r = o.of_bignum r in
      let sinv = o.inv (o.of_bignum s) in
      match
        Ec.scalar_mult_base_add curve (o.to_bignum (o.mul z sinv)) (o.to_bignum (o.mul r sinv)) pub
      with
      | Ec.Inf -> false
      | Ec.Affine (x, _) -> o.equal (o.of_bignum x) r)

(* Static ECDH with the signing key: the certificate's long-term key used
   directly for key agreement, as in the TLS ECDH_ECDSA suites. This is the
   non-forward-secret exchange of the paper — the long-term key decrypts
   everything, forever. *)
let ecdh kp ~peer_pub = Ec.agree kp.curve kp.priv ~peer_pub

(* Fixed-width (r, s) concatenation; width follows the group order. *)
let order_len curve = (B.num_bits (Ec.curve_order curve) + 7) / 8

let signature_bytes curve { r; s } =
  let l = order_len curve in
  B.to_bytes_be ~len:l r ^ B.to_bytes_be ~len:l s

let signature_of_bytes curve bytes =
  let l = order_len curve in
  if String.length bytes <> 2 * l then Error "ecdsa: bad signature length"
  else
    Ok { r = B.of_bytes_be (String.sub bytes 0 l); s = B.of_bytes_be (String.sub bytes l l) }
