(* TLS hello extensions (the subset this study exercises), with the
   RFC 5246 / RFC 6066 / RFC 5077 wire encoding: u16 type, u16-length body. *)

type t =
  | Server_name of string (* RFC 6066 SNI, single host_name entry *)
  | Session_ticket of string (* RFC 5077; "" is the empty offer *)
  | Supported_groups of int list (* RFC 4492 named groups *)
  | Renegotiation_info
  | Unknown of int * string

let type_code = function
  | Server_name _ -> 0
  | Supported_groups _ -> 10
  | Session_ticket _ -> 35
  | Renegotiation_info -> 0xff01
  | Unknown (c, _) -> c

let body = function
  | Server_name host ->
      (* ServerNameList with one host_name (type 0) entry. *)
      Wire.Writer.build (fun w ->
          let entry =
            Wire.Writer.build (fun w' ->
                Wire.Writer.u8 w' 0;
                Wire.Writer.vec16 w' host)
          in
          Wire.Writer.vec16 w entry)
  | Session_ticket ticket -> ticket
  | Supported_groups groups ->
      Wire.Writer.build (fun w ->
          Wire.Writer.vec16 w
            (Wire.Writer.build (fun w' -> List.iter (Wire.Writer.u16 w') groups)))
  | Renegotiation_info -> "\x00"
  | Unknown (_, data) -> data

let write w ext =
  Wire.Writer.u16 w (type_code ext);
  Wire.Writer.vec16 w (body ext)

let parse_body code data =
  match code with
  | 0 ->
      Wire.Reader.parse data (fun r ->
          let entries = Wire.Reader.sub r (Wire.Reader.u16 r) in
          let ty = Wire.Reader.u8 entries in
          let host = Wire.Reader.vec16 entries in
          Wire.Reader.expect_end entries;
          if ty <> 0 then Unknown (0, data) else Server_name host)
  | 10 ->
      Wire.Reader.parse data (fun r ->
          let groups = Wire.Reader.sub r (Wire.Reader.u16 r) in
          let rec go acc =
            if Wire.Reader.is_empty groups then List.rev acc
            else go (Wire.Reader.u16 groups :: acc)
          in
          Supported_groups (go []))
  | 35 -> Session_ticket data
  | 0xff01 -> Renegotiation_info
  | c -> Unknown (c, data)

let read r =
  let code = Wire.Reader.u16 r in
  let data = Wire.Reader.vec16 r in
  try parse_body code data with Wire.Reader.Error _ -> Unknown (code, data)

(* Extension blocks: u16 total length followed by the extensions; an absent
   block (old clients) encodes as nothing at all. *)
let write_block w exts =
  match exts with
  | [] -> ()
  | _ ->
      let payload = Wire.Writer.build (fun w' -> List.iter (write w') exts) in
      Wire.Writer.vec16 w payload

let read_block r =
  if Wire.Reader.is_empty r then []
  else begin
    let block = Wire.Reader.sub r (Wire.Reader.u16 r) in
    let rec go acc = if Wire.Reader.is_empty block then List.rev acc else go (read block :: acc) in
    go []
  end

let find_session_ticket exts =
  List.find_map (function Session_ticket t -> Some t | _ -> None) exts

let has_session_ticket exts =
  List.exists (function Session_ticket _ -> true | _ -> false) exts
