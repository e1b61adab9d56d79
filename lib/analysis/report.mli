(** Plain-text rendering: aligned tables and ASCII CDF plots, used by the
    bench harness to print every table and figure. *)

val pad : int -> string -> string
val pad_left : int -> string -> string

val table : headers:string list -> rows:string list list -> string
(** Aligned columns; numeric-looking cells right-aligned. *)

val fmt_pct : float -> string
(** [0.385] -> ["38.5%"]. *)

val fmt_count : float -> string
val fmt_float : ?digits:int -> float -> string

val ascii_cdf : ?height:int -> ticks:(float * string) list -> Stats.cdf -> string
(** The cumulative fraction at each labeled tick, drawn as columns. *)

val section : string -> string
