(** ECDSA over any {!Ec} curve, hashing with SHA-256. *)

type keypair
type signature

val gen_keypair : Ec.curve -> Rng.t -> keypair
val public_key : keypair -> Ec.point

val ecdh : keypair -> peer_pub:Ec.point -> (string, string) result
(** Static ECDH using the signing key, as in the TLS ECDH_ECDSA suites,
    with {!Ec.agree}'s checks on the peer's point. *)

val sign : keypair -> Rng.t -> string -> signature
val verify : curve:Ec.curve -> pub:Ec.point -> msg:string -> signature -> bool

val signature_bytes : Ec.curve -> signature -> string
(** Fixed-width [r || s] encoding. *)

val signature_of_bytes : Ec.curve -> string -> (signature, string) result
