(** Finite-field Diffie-Hellman key exchange, Miller-Rabin primality, and
    deterministic safe-prime group generation. *)

type group
(** A (p, g) group with a cached Montgomery context. *)

val make_group : p:Bignum.t -> g:Bignum.t -> q_bits:int -> group
val group_p : group -> Bignum.t
val group_g : group -> Bignum.t

val oakley2 : group
(** The real 1024-bit MODP group (RFC 2409 Second Oakley Group),
    generator 2 — the group production DHE deployments shipped. *)

val is_probably_prime : ?rounds:int -> ?rng:Rng.t -> Bignum.t -> bool
(** Miller-Rabin with trial division by small primes. *)

val generate : bits:int -> seed:string -> group
(** Deterministically generate a safe-prime group (p = 2q + 1, generator 4)
    of the given size, 16..256 bits. Small groups keep simulation sweeps
    tractable while exercising the same DH code path as {!oakley2}. *)

type keypair

val gen_keypair : group -> Rng.t -> keypair
val public_bytes : keypair -> string
(** Fixed-width big-endian encoding of the public value, the bytes a TLS
    ServerKeyExchange carries (and the scanner compares for reuse). *)

val shared_secret : keypair -> peer_pub:Bignum.t -> (string, string) result
