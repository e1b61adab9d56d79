(* ECDSA over any {!Ec} curve, hashing with SHA-256. This is the signature
   scheme behind the reproduction's certificate authority and the server's
   ServerKeyExchange signatures: real public-key authentication at
   simulation-tractable cost when instantiated over a small curve. *)

module B = Bignum

type keypair = { curve : Ec.curve; priv : B.t; pub : Ec.point }
type signature = { r : B.t; s : B.t }

let gen_keypair curve rng =
  let n = Ec.curve_order curve in
  let priv = Rng.bignum_in_group rng n in
  { curve; priv; pub = Ec.scalar_mult_base curve priv }

let public_key kp = kp.pub

(* Truncate the hash to the bit length of the group order (FIPS 186-4). *)
let hash_to_z curve msg =
  let n = Ec.curve_order curve in
  let h = B.of_bytes_be (Sha256.digest msg) in
  let excess = 256 - B.num_bits n in
  if excess > 0 then B.shift_right h excess else h

let sign kp rng msg =
  let n = Ec.curve_order kp.curve in
  let z = hash_to_z kp.curve msg in
  let rec attempt () =
    let k = Rng.bignum_in_group rng n in
    match Ec.scalar_mult_base kp.curve k with
    | Ec.Inf -> attempt ()
    | Ec.Affine (x, _) ->
        let r = B.rem x n in
        if B.is_zero r then attempt ()
        else
          let kinv = Ec.mod_order_inverse kp.curve k in
          let s = B.rem (B.mul kinv (B.add z (B.rem (B.mul r kp.priv) n))) n in
          if B.is_zero s then attempt () else { r; s }
  in
  attempt ()

let verify ~curve ~pub ~msg { r; s } =
  let n = Ec.curve_order curve in
  let in_range v = B.compare v B.zero > 0 && B.compare v n < 0 in
  in_range r && in_range s
  && Ec.on_curve curve pub
  &&
  let z = hash_to_z curve msg in
  let sinv = Ec.mod_order_inverse curve s in
  let u1 = B.rem (B.mul z sinv) n in
  let u2 = B.rem (B.mul r sinv) n in
  match Ec.scalar_mult_base_add curve u1 u2 pub with
  | Ec.Inf -> false
  | Ec.Affine (x, _) -> B.equal (B.rem x n) r

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
