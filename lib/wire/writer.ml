(* A growable byte-string builder with big-endian primitives matching the
   TLS presentation language (RFC 5246 section 4). *)

type t = Buffer.t

let create ?(capacity = 64) () = Buffer.create capacity

let length t = Buffer.length t

let to_string t = Buffer.contents t

(* Drop the contents but keep the underlying storage, so one writer can
   frame many messages without reallocating. *)
let clear t = Buffer.clear t

let u8 t v =
  if v < 0 || v > 0xff then invalid_arg "Writer.u8: out of range";
  Buffer.add_char t (Char.chr v)

let u16 t v =
  if v < 0 || v > 0xffff then invalid_arg "Writer.u16: out of range";
  Buffer.add_char t (Char.chr (v lsr 8));
  Buffer.add_char t (Char.chr (v land 0xff))

let u24 t v =
  if v < 0 || v > 0xffffff then invalid_arg "Writer.u24: out of range";
  Buffer.add_char t (Char.chr (v lsr 16));
  Buffer.add_char t (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char t (Char.chr (v land 0xff))

let u32 t v =
  if v < 0 || v > 0xffffffff then invalid_arg "Writer.u32: out of range";
  u16 t (v lsr 16);
  u16 t (v land 0xffff)

let u64 t v =
  (* [v] is a non-negative OCaml int (63 bits); sufficient for the
     timestamps and lengths used here. *)
  if v < 0 then invalid_arg "Writer.u64: negative";
  u32 t ((v lsr 32) land 0xffffffff);
  u32 t (v land 0xffffffff)

let bytes t s = Buffer.add_string t s

(* Variable-length vectors: a length prefix of 1, 2 or 3 bytes followed by
   the body, as in the TLS presentation language. *)

let vec8 t s =
  if String.length s > 0xff then invalid_arg "Writer.vec8: too long";
  u8 t (String.length s);
  bytes t s

let vec16 t s =
  if String.length s > 0xffff then invalid_arg "Writer.vec16: too long";
  u16 t (String.length s);
  bytes t s

let vec24 t s =
  if String.length s > 0xffffff then invalid_arg "Writer.vec24: too long";
  u24 t (String.length s);
  bytes t s

let build f =
  let t = create () in
  f t;
  to_string t

(* Direct big-endian stores into preallocated buffers: the reuse-oriented
   counterparts of the streaming writers above. The record layer frames
   headers, nonces and MAC prefixes into per-connection scratch with
   these instead of building throwaway strings. Bounds are checked by
   [Bytes.set]. *)

let set_u8 b pos v =
  if v < 0 || v > 0xff then invalid_arg "Writer.set_u8: out of range";
  Bytes.set b pos (Char.chr v)

let set_u16 b pos v =
  if v < 0 || v > 0xffff then invalid_arg "Writer.set_u16: out of range";
  Bytes.set b pos (Char.chr (v lsr 8));
  Bytes.set b (pos + 1) (Char.chr (v land 0xff))

let set_u24 b pos v =
  if v < 0 || v > 0xffffff then invalid_arg "Writer.set_u24: out of range";
  Bytes.set b pos (Char.chr (v lsr 16));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 2) (Char.chr (v land 0xff))

let set_u32 b pos v =
  if v < 0 || v > 0xffffffff then invalid_arg "Writer.set_u32: out of range";
  set_u16 b pos (v lsr 16);
  set_u16 b (pos + 2) (v land 0xffff)

let set_u64 b pos v =
  if v < 0 then invalid_arg "Writer.set_u64: negative";
  set_u32 b pos ((v lsr 32) land 0xffffffff);
  set_u32 b (pos + 4) (v land 0xffffffff)
