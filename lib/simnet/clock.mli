(** The virtual clock the whole stack reads: a nine-week campaign runs in
    seconds and stays deterministic. Integer seconds; time never goes
    backwards. *)

type t

val create : ?start:int -> unit -> t
val now : t -> int

val advance : t -> int -> unit
(** Raises [Invalid_argument] on negative amounts. *)

val set : t -> int -> unit
(** Raises [Invalid_argument] if the target is in the past. *)

val minute : int
val hour : int
val day : int

val day_of : t -> int
