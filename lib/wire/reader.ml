(* A cursor over an immutable byte string, decoding the same big-endian
   primitives that {!Writer} encodes. All failures raise {!Error} with a
   description; TLS message parsers catch it at the message boundary. *)

exception Error of string

type t = { data : string; mutable pos : int; limit : int }

let of_string data = { data; pos = 0; limit = String.length data }

let pos t = t.pos
let remaining t = t.limit - t.pos
let is_empty t = remaining t = 0

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let need t n =
  if remaining t < n then
    fail "short read: need %d bytes, have %d" n (remaining t)

let u8 t =
  need t 1;
  let v = Char.code t.data.[t.pos] in
  t.pos <- t.pos + 1;
  v

let u16 t =
  let hi = u8 t in
  let lo = u8 t in
  (hi lsl 8) lor lo

let u24 t =
  let hi = u8 t in
  let rest = u16 t in
  (hi lsl 16) lor rest

let u32 t =
  let hi = u16 t in
  let lo = u16 t in
  (hi lsl 16) lor lo

let u64 t =
  let hi = u32 t in
  let lo = u32 t in
  (hi lsl 32) lor lo

let take t n =
  if n < 0 then fail "take: negative length";
  need t n;
  let s = String.sub t.data t.pos n in
  t.pos <- t.pos + n;
  s

let take_rest t = take t (remaining t)

let vec8 t = take t (u8 t)
let vec16 t = take t (u16 t)
let vec24 t = take t (u24 t)

let sub t n =
  (* A sub-reader confined to the next [n] bytes; the parent cursor is
     advanced past them. *)
  need t n;
  let r = { data = t.data; pos = t.pos; limit = t.pos + n } in
  t.pos <- t.pos + n;
  r

let expect_end t =
  if not (is_empty t) then fail "trailing garbage: %d bytes" (remaining t)

let parse data f =
  let t = of_string data in
  let v = f t in
  expect_end t;
  v

let parse_result data f =
  match parse data f with
  | v -> Ok v
  | exception Error msg -> Error msg
