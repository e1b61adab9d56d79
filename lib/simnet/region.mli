(** Named scan vantage points for the cross-regional worlds. A world is
    a pure function of [(config, region)]: the default region reproduces
    the paper's single vantage, and every other region applies
    deterministic per-operator overrides on top of the same base
    profiles. *)

type t = string

val all : t list
(** Every region; the first is {!default_name}. *)

val default_name : t
(** The vantage the original study scanned from, and the one an archived
    row with an empty region is attributed to. *)

val is_valid : t -> bool

val names : string
(** {!all}, space-separated. *)

val take : int -> t list
(** The first [n] regions, for [--regions N]. Raises [Invalid_argument]
    unless [1 <= n <= List.length all]. *)
