(** Ephemeral key-exchange value caching — the "(EC)DHE reuse" shortcut
    of Section 4.4. RFC 5246 says fresh exponents per handshake; OpenSSL
    before CVE-2016-0701 and SChannel reused the server value. While the
    cached private value exists, every handshake that used it can be
    retroactively decrypted. One instance may be shared across domains
    (Section 5.3's Diffie-Hellman service groups). *)

type policy =
  | Fresh_always  (** RFC-compliant: new value per handshake *)
  | Reuse_for of int  (** keep the value for N seconds *)
  | Reuse_forever  (** keep it for the life of the process *)

type t

val create : ?dhe:policy -> ?ecdhe:policy -> unit -> t
(** DHE and ECDHE reuse are independent, as in production stacks
    (SSL_OP_SINGLE_DH_USE vs SSL_OP_SINGLE_ECDH_USE). Both default to
    {!Fresh_always}. *)

val uniform : policy:policy -> t

val restart : t -> unit
(** Simulated process restart: cached values die. *)

val dhe_keypair : t -> now:int -> group:Crypto.Dh.group -> Crypto.Rng.t -> Crypto.Dh.keypair
val ecdhe_keypair : t -> now:int -> curve:Crypto.Ec.curve -> Crypto.Rng.t -> Crypto.Ec.keypair

val x25519_keypair : t -> now:int -> Crypto.Rng.t -> Crypto.X25519.keypair
(** X25519 shares follow the ECDHE reuse policy. *)

val current_dhe : t -> Crypto.Dh.keypair option
(** Compromise accessor: the cached private value an attacker dumping
    process memory obtains. Used by the {!Tlsharm.Attack} demos. *)

val current_ecdhe : t -> Crypto.Ec.keypair option

val current_x25519 : t -> Crypto.X25519.keypair option
(** Cached X25519 share (reused under the ECDHE policy) — without this
    the attack demos could not see an X25519 compromise at all. *)
