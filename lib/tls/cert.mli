(** A deliberately small X.509 stand-in with real ECDSA signatures: the
    measurements need working trust evaluation (is the chain
    browser-trusted, valid at scan time, covering the hostname?), not
    DER/ASN.1 fidelity. See DESIGN.md on this substitution. *)

type t

val subject : t -> string
val issuer : t -> string
val public_key : t -> string
(** SEC1 point bytes on the PKI curve. *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result

(** {2 Authorities} *)

type authority

val authority_cert : authority -> t

val authority_of : cert:t -> keypair:Crypto.Ecdsa.keypair -> authority
(** Wrap an issued CA certificate (e.g. an intermediate) so it can issue
    further certificates. *)

val self_signed :
  curve:Crypto.Ec.curve ->
  name:string ->
  not_before:int ->
  not_after:int ->
  serial:int ->
  Crypto.Rng.t ->
  authority

val issue :
  authority ->
  curve:Crypto.Ec.curve ->
  subject:string ->
  ?sans:string list ->
  ?is_ca:bool ->
  not_before:int ->
  not_after:int ->
  serial:int ->
  pub:string ->
  Crypto.Rng.t ->
  t

(** {2 Validation} *)

type validation_error =
  | Expired of string
  | Not_yet_valid of string
  | Bad_signature of string
  | Untrusted_root of string
  | Name_mismatch of { hostname : string; cert : string }
  | Empty_chain
  | Not_a_ca of string
  | Not_evaluated  (** the client was configured not to evaluate trust *)

val pp_validation_error : Format.formatter -> validation_error -> unit

type root_store
(** Trusted root names and keys — the moral equivalent of the NSS store
    the paper validates against. *)

val empty_store : unit -> root_store
val store_of_list : t list -> root_store

val name_matches : hostname:string -> string -> bool
(** Wildcard matching: ["*.example.com"] covers exactly one extra label;
    case-insensitive. *)

val validate :
  curve:Crypto.Ec.curve ->
  store:root_store ->
  now:int ->
  hostname:string ->
  t list ->
  (t, validation_error) result
(** Validate a chain (leaf first) at time [now] for [hostname]; returns
    the leaf on success. *)
