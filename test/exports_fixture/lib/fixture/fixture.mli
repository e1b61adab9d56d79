(* Input for exports.sh's own test: [pp] has no caller, although its
   name appears as a bare word, in a comment and in a string elsewhere;
   [with_knob]'s [?knob] is passed by no other file, although ~knob
   appears in a comment and a string there. *)

val pp : Format.formatter -> int -> unit
val via_alias : int -> int
val via_open : int -> int
val via_path : int -> int
val with_knob : ?knob:int -> ?used:int -> unit -> int
