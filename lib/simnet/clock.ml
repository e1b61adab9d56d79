(* A virtual clock. The whole stack reads time from here, which is what
   lets a nine-week measurement campaign run in seconds and remain
   deterministic. Time is integer seconds from the simulation epoch. *)

type t = { mutable now : int }

let create ?(start = 0) () =
  if start < 0 then invalid_arg "Clock.create: negative start";
  { now = start }

let now t = t.now

let advance t seconds =
  if seconds < 0 then invalid_arg "Clock.advance: cannot go backwards";
  t.now <- t.now + seconds

let set t time =
  if time < t.now then invalid_arg "Clock.set: cannot go backwards";
  t.now <- time

(* Conversions used throughout the experiments. *)
let minute = 60
let hour = 3600
let day = 86_400

let day_of t = t.now / day
