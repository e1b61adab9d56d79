(** Minimal deterministic JSON (emit + strict parse) for observability
    artifacts. Emission adds no whitespace variation and prints integral
    numbers without a fractional part, so equal values render to equal
    bytes — the property the metrics-determinism tests compare. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t

val to_string : t -> string
(** Pretty-printed with two-space indentation and a trailing newline;
    deterministic for equal values. *)

val of_string : string -> (t, string) result
(** Strict parse of the subset {!to_string} emits (plus arbitrary
    whitespace); [Error] names the offset of the first problem. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
(** [None] unless the number is integral and in OCaml's int range. *)

val to_str : t -> string option
val to_obj : t -> (string * t) list option
