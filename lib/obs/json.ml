(* Minimal deterministic JSON for the observability layer. Emission is
   fully deterministic (callers hand us sorted fields; we add no
   whitespace variation), which is what lets two campaign runs be
   compared with [String.equal] on their metrics files. The parser is
   the strict recursive-descent subset the project needs — objects,
   arrays, strings, numbers, booleans — shared by the CLI's
   [metrics-report] and the bench's results files. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- Emitting ------------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Integers print without a fractional part so counter values survive a
   render/parse/render round trip byte-identically. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 1024 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            go (indent + 2) item)
          items;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (indent + 2);
            escape_string b k;
            Buffer.add_string b ": ";
            go (indent + 2) item)
          fields;
        Buffer.add_char b '\n';
        pad indent;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- Parsing -------------------------------------------------------------- *)

let of_string s =
  let ( let* ) = Result.bind in
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then begin
      advance ();
      Ok ()
    end
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      Ok v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    let* () = expect '"' in
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            advance ();
            Ok (Buffer.contents b)
        | '\\' ->
            advance ();
            let* () =
              if !pos >= n then fail "unterminated escape"
              else
                match s.[!pos] with
                | '"' -> Buffer.add_char b '"'; Ok ()
                | '\\' -> Buffer.add_char b '\\'; Ok ()
                | '/' -> Buffer.add_char b '/'; Ok ()
                | 'n' -> Buffer.add_char b '\n'; Ok ()
                | 'r' -> Buffer.add_char b '\r'; Ok ()
                | 't' -> Buffer.add_char b '\t'; Ok ()
                | 'u' ->
                    if !pos + 4 >= n then fail "bad \\u escape"
                    else begin
                      let hex = String.sub s (!pos + 1) 4 in
                      match int_of_string_opt ("0x" ^ hex) with
                      | Some code when code < 0x80 ->
                          Buffer.add_char b (Char.chr code);
                          pos := !pos + 4;
                          Ok ()
                      | _ -> fail "bad \\u escape"
                    end
                | c -> fail (Printf.sprintf "bad escape '\\%c'" c)
            in
            advance ();
            loop ()
        | c ->
            Buffer.add_char b c;
            advance ();
            loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Ok f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' ->
        let* s = parse_string () in
        Ok (Str s)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Ok (Obj [])
        end
        else
          let rec members acc =
            skip_ws ();
            let* k = parse_string () in
            skip_ws ();
            let* () = expect ':' in
            let* v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Ok (Obj (List.rev ((k, v) :: acc)))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Ok (List [])
        end
        else
          let rec elements acc =
            let* v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Ok (List (List.rev (v :: acc)))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ ->
        let* f = parse_number () in
        Ok (Num f)
    | None -> fail "unexpected end of input"
  in
  let* v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content" else Ok v

(* --- Accessors ------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_float = function Num f -> Some f | _ -> None
(* Only integral numbers in OCaml's int range [-2^62, 2^62) convert;
   [int_of_float] is unspecified outside it. *)
let to_int = function
  | Num f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> Some (int_of_float f)
  | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
