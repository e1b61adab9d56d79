(* Input for exports.sh's own test: a library module without an .mli. *)

let answer = 42
