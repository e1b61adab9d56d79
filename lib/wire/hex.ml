(* Hexadecimal encoding and decoding of byte strings. *)

let hex_digit n =
  if n < 10 then Char.chr (Char.code '0' + n)
  else Char.chr (Char.code 'a' + n - 10)

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code s.[i] in
    Bytes.set out (2 * i) (hex_digit (b lsr 4));
    Bytes.set out ((2 * i) + 1) (hex_digit (b land 0xf))
  done;
  Bytes.unsafe_to_string out

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode s =
  (* Accept embedded spaces and newlines so test vectors can be pasted
     verbatim from RFCs. *)
  let filtered = String.to_seq s |> Seq.filter (fun c -> c <> ' ' && c <> '\n' && c <> '\t') in
  let compact = String.of_seq filtered in
  let n = String.length compact in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((digit_value compact.[2 * i] lsl 4) lor digit_value compact.[(2 * i) + 1]))

let decode_opt s = try Some (decode s) with Invalid_argument _ -> None
