let pp ppf n = Format.fprintf ppf "%d" n
let via_alias n = n + 1
let via_open n = n + 2
let via_path n = n + 3
let with_knob ?(knob = 0) ?(used = 0) () = knob + used
let () = ignore (with_knob ~knob:1 ())
