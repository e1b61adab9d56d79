(* Names Fixture.pp only in this comment. *)
module F = Fixture

let pp ppf n = Format.fprintf ppf "Fixture.pp %d" n
let () = pp Format.std_formatter (F.via_alias 1)
let () = Lib.Fixture.via_path 2 |> ignore
(* Fixture.with_knob ~knob:2 *)
let () = ignore (Fixture.with_knob ~used:1 ())
let () = print_string "~knob:3"
