(* X25519 (RFC 7748): Diffie-Hellman over Curve25519 via the Montgomery
   ladder. Verified against the RFC 7748 test vectors in the test suite. *)

module F = Bignum.Field

let p = Bignum.sub_int (Bignum.shift_left Bignum.one 255) 19
let fctx = F.create p
let a24 = F.of_bignum fctx (Bignum.of_int 121665)

let key_len = 32

let reverse s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

let decode_u_coordinate s =
  if String.length s <> key_len then invalid_arg "X25519: u-coordinate must be 32 bytes";
  (* Little-endian; the top bit is masked per RFC 7748. *)
  let b = Bytes.of_string s in
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 0x7f));
  Bignum.rem (Bignum.of_bytes_be (reverse (Bytes.to_string b))) p

let encode_u_coordinate v = reverse (Bignum.to_bytes_be ~len:key_len v)

let clamp_scalar s =
  if String.length s <> key_len then invalid_arg "X25519: scalar must be 32 bytes";
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 248));
  Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) land 127 lor 64));
  Bignum.of_bytes_be (reverse (Bytes.to_string b))

let ladder k u =
  let x1 = F.of_bignum fctx u in
  let one = F.one fctx and zero = F.zero fctx in
  let x2 = ref one and z2 = ref zero and x3 = ref x1 and z3 = ref one in
  let swap = ref false in
  let cswap cond a b =
    if cond then begin
      let t = !a in
      a := !b;
      b := t
    end
  in
  for t = 254 downto 0 do
    let kt = Bignum.test_bit k t in
    let do_swap = !swap <> kt in
    swap := kt;
    cswap do_swap x2 x3;
    cswap do_swap z2 z3;
    let a = F.add fctx !x2 !z2 in
    let aa = F.sqr fctx a in
    let b = F.sub fctx !x2 !z2 in
    let bb = F.sqr fctx b in
    let e = F.sub fctx aa bb in
    let c = F.add fctx !x3 !z3 in
    let d = F.sub fctx !x3 !z3 in
    let da = F.mul fctx d a in
    let cb = F.mul fctx c b in
    x3 := F.sqr fctx (F.add fctx da cb);
    z3 := F.mul fctx x1 (F.sqr fctx (F.sub fctx da cb));
    x2 := F.mul fctx aa bb;
    z2 := F.mul fctx e (F.add fctx aa (F.mul fctx a24 e))
  done;
  cswap !swap x2 x3;
  cswap !swap z2 z3;
  if F.is_zero !z2 then Bignum.zero
  else F.to_bignum fctx (F.mul fctx !x2 (F.inv fctx !z2))

let scalar_mult ~scalar ~u =
  Obs.Kernel.(bump x25519_mult);
  let k = clamp_scalar scalar in
  let uv = decode_u_coordinate u in
  encode_u_coordinate (ladder k uv)

let base_point = encode_u_coordinate (Bignum.of_int 9)

type keypair = { priv : string; pub : string }

let gen_keypair rng =
  let priv = Rng.generate rng key_len in
  { priv; pub = scalar_mult ~scalar:priv ~u:base_point }

let public_bytes kp = kp.pub

let shared_secret kp ~peer_pub =
  let z = scalar_mult ~scalar:kp.priv ~u:peer_pub in
  (* RFC 7748: reject the all-zero output (low-order peer point). *)
  if String.for_all (fun c -> c = '\000') z then Error "x25519: low-order peer point"
  else Ok z
