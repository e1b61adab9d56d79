(* Ephemeral key-exchange value caching — the "(EC)DHE reuse" shortcut of
   Section 4.4. RFC 5246 says to generate a fresh exponent per handshake;
   OpenSSL before CVE-2016-0701 and Microsoft SChannel instead reused the
   server value (SSL_OP_SINGLE_DH_USE off), amortizing the modexp. While
   the cached private value exists, every handshake that used it can be
   retroactively decrypted.

   Like the session cache and the STEK manager, one instance may be shared
   across servers and domains (Section 5.3's Diffie-Hellman service
   groups). *)

type policy =
  | Fresh_always (* RFC-compliant: new value per handshake *)
  | Reuse_for of int (* keep the value for N seconds *)
  | Reuse_forever (* keep it for the life of the process *)

(* DHE and ECDHE reuse are configured independently: production stacks
   cached them separately (OpenSSL's SSL_OP_SINGLE_DH_USE vs
   SSL_OP_SINGLE_ECDH_USE) and the paper measures them separately. *)
type t = {
  dhe_policy : policy;
  ecdhe_policy : policy; (* also governs X25519 shares *)
  mutable dhe : (Crypto.Dh.keypair * int) option; (* keypair, created_at *)
  mutable ecdhe : (Crypto.Ec.keypair * int) option;
  mutable x25519 : (Crypto.X25519.keypair * int) option;
}

let create ?(dhe = Fresh_always) ?(ecdhe = Fresh_always) () =
  { dhe_policy = dhe; ecdhe_policy = ecdhe; dhe = None; ecdhe = None; x25519 = None }

let uniform ~policy = create ~dhe:policy ~ecdhe:policy ()

(* Simulated process restart: cached values die with the process. *)
let restart t =
  t.dhe <- None;
  t.ecdhe <- None;
  t.x25519 <- None

let stale policy ~now created_at =
  match policy with
  | Fresh_always -> true
  | Reuse_for ttl -> now - created_at >= ttl
  | Reuse_forever -> false

let dhe_keypair t ~now ~group rng =
  match t.dhe with
  | Some (kp, created_at) when not (stale t.dhe_policy ~now created_at) -> kp
  | Some _ | None ->
      let kp = Crypto.Dh.gen_keypair group rng in
      if t.dhe_policy <> Fresh_always then t.dhe <- Some (kp, now);
      kp

let ecdhe_keypair t ~now ~curve rng =
  match t.ecdhe with
  | Some (kp, created_at) when not (stale t.ecdhe_policy ~now created_at) -> kp
  | Some _ | None ->
      let kp = Crypto.Ec.gen_keypair curve rng in
      if t.ecdhe_policy <> Fresh_always then t.ecdhe <- Some (kp, now);
      kp

(* Compromise accessors: what an attacker who dumps the server process's
   memory obtains — the currently cached ephemeral private values. Used by
   the Attack demonstrations and the examples. *)
let current_dhe t = Option.map fst t.dhe
let current_ecdhe t = Option.map fst t.ecdhe
let current_x25519 t = Option.map fst t.x25519

let x25519_keypair t ~now rng =
  match t.x25519 with
  | Some (kp, created_at) when not (stale t.ecdhe_policy ~now created_at) -> kp
  | Some _ | None ->
      let kp = Crypto.X25519.gen_keypair rng in
      if t.ecdhe_policy <> Fresh_always then t.x25519 <- Some (kp, now);
      kp

