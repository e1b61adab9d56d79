(** RFC 5077 session tickets: session state sealed under a STEK
    (AES-128-CBC + HMAC-SHA256, the construction the RFC recommends) and
    handed to the client. Anyone holding the STEK can open every ticket
    sealed with it — the paper's central attack (Section 6.1). *)

val seal : Stek.t -> Crypto.Rng.t -> Session.t -> string

val seal_plain : Stek.t -> Crypto.Rng.t -> string -> string
(** The envelope around an opaque plaintext: key_name || IV || vec16
    (AES-128-CBC under the STEK) || HMAC-SHA256 of all that. The IV is
    the only draw from the [Rng]. [seal] is this over the session's
    bytes; TLS 1.3 PSK tickets ({!Tls13.seal_psk}) use it too. *)

val peek_key_name : string -> string option
(** The STEK key name rides outside the encryption; this is what the
    scanner reads to track STEK lifetimes. *)

type unseal_error =
  | Too_short
  | Unknown_key_name of string
  | Bad_mac
  | Corrupt_state of string

val pp_unseal_error : Format.formatter -> unseal_error -> unit

val unseal_plain :
  decode:(string -> ('a, string) result) ->
  find_stek:(string -> Stek.t option) ->
  string ->
  ('a, unseal_error) result
(** Open a {!seal_plain} envelope and [decode] its plaintext (a decode
    error is [Corrupt_state]). [find_stek] resolves key names: a server
    may accept tickets from several recent STEKs while issuing with the
    newest (Google's 14h-issue / 28h-accept schedule). *)

val unseal : find_stek:(string -> Stek.t option) -> string -> (Session.t, unseal_error) result
(** {!unseal_plain} with the session codec. *)

val decrypt_with_stolen_stek :
  find_stek:(string -> Stek.t option) -> string -> (Session.t, unseal_error) result
(** The passive attack the paper quantifies, spelled out: a recorded
    ticket plus a stolen STEK yields the session master secret. (Alias
    of {!unseal}; the operation is identical, which is the point.) *)
