(** Deterministic synthetic domain names for the long tail and for
    operator customer domains. Names are unique, plausible and stable
    across runs. *)

val domain : int -> string
(** A long-tail name, unique for each non-negative index. *)

val operator_domain : operator:string -> int -> string
(** A customer domain of a named operator, e.g.
    ["nova-shop83.cloudflare-hosted.example"]. *)
