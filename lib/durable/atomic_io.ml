(* Crash-safe file persistence for every artifact the project archives:
   campaign CSVs, stream manifests, bench JSON. Two disciplines, one
   writer:

   - *atomicity*: content goes to a same-directory temp file which is
     fsynced and then renamed over the destination, so a reader (or a
     resumed campaign) only ever sees the old complete file or the new
     complete file — never a half-written one. A failure mid-write
     removes the temp file; nothing stray is left behind.
   - *integrity*: the payload is framed by a header line and a footer
     line carrying the byte count and per-block checksums, so [read] can
     distinguish a complete file from one truncated by a crash or
     silently corrupted at rest, and can name the byte offset where the
     damage starts.

   The frame is line-oriented on purpose: durable files remain greppable
   text, and the header line doubles as a format marker, so a file
   without it (a pre-durability archive, a hand-written JSON) is refused
   by name rather than misread. *)

let header = "#tlsharm-durable v1\n"
let footer_tag = "#tlsharm-footer v1 "

(* 64 KiB blocks: fine enough that a corruption report localizes the
   damage usefully, coarse enough that the footer of a 100 MB archive
   stays a few tens of KB. *)
let block_size = 65536

(* Per-block tag: the first 16 hex characters (64 bits) of SHA-256 —
   ample for corruption detection, compact in the footer. *)
let block_tag s = String.sub (Wire.Hex.encode (Crypto.Sha256.digest s)) 0 16

type error =
  | Io of string
  | Not_durable
  | Missing_footer of { actual_bytes : int }
  | Truncated of { expected_bytes : int; actual_bytes : int }
  | Corrupt of { offset : int }

let error_to_string ?(what = "file") = function
  | Io e -> Printf.sprintf "%s: %s" what e
  | Not_durable -> Printf.sprintf "%s: not a durable (checksummed) file" what
  | Missing_footer { actual_bytes } ->
      Printf.sprintf
        "%s: checksum footer missing — file truncated at or after byte %d" what actual_bytes
  | Truncated { expected_bytes; actual_bytes } ->
      Printf.sprintf "%s: truncated — footer declares %d content bytes, found %d" what
        expected_bytes actual_bytes
  | Corrupt { offset } ->
      Printf.sprintf "%s: corrupt — first damaged block starts at byte offset %d" what offset

(* --- Writing ----------------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  pending : Buffer.t; (* bytes not yet closed into a block *)
  mutable tags : string list; (* completed block tags, reversed *)
  mutable bytes : int;
}

let add w s =
  output_string w.oc s;
  Buffer.add_string w.pending s;
  w.bytes <- w.bytes + String.length s;
  while Buffer.length w.pending >= block_size do
    let block = Buffer.sub w.pending 0 block_size in
    let rest = Buffer.sub w.pending block_size (Buffer.length w.pending - block_size) in
    Buffer.clear w.pending;
    Buffer.add_string w.pending rest;
    w.tags <- block_tag block :: w.tags
  done

let footer w =
  let tags =
    let last = if Buffer.length w.pending > 0 then [ block_tag (Buffer.contents w.pending) ] else [] in
    List.rev_append w.tags last
  in
  Printf.sprintf "%sbytes=%d block=%d crc=%s\n" footer_tag w.bytes block_size
    (String.concat "." tags)

let fsync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Directory fsync makes the rename itself durable; best-effort because
   some filesystems refuse O_RDONLY directory fds. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write_framed ~sync path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !committed then begin
        close_out_noerr oc;
        try Sys.remove tmp with Sys_error _ -> ()
      end)
    (fun () ->
      let w = { oc; pending = Buffer.create block_size; tags = []; bytes = 0 } in
      output_string oc header;
      f w;
      (* A separator newline keeps the footer on its own line no matter
         what the content ends with (binary, JSON without a trailing
         newline). It belongs to the frame: [bytes=] does not count it
         and the reader strips it. *)
      output_string oc "\n";
      output_string oc (footer w);
      if sync then fsync_channel oc;
      close_out oc;
      committed := true;
      Sys.rename tmp path;
      if sync then fsync_dir (Filename.dirname path))

let with_writer path f = write_framed ~sync:true path f
let write ?(sync = true) path content = write_framed ~sync path (fun w -> add w content)

(* --- Reading ----------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Split a raw durable file into (content, footer-line) — or report why
   it cannot be. *)
let frame raw =
  if not (starts_with ~prefix:header raw) then Error Not_durable
  else begin
    let hlen = String.length header in
    let len = String.length raw in
    let body_len = len - hlen in
    let missing () = Error (Missing_footer { actual_bytes = max 0 body_len }) in
    if len = 0 || raw.[len - 1] <> '\n' then missing ()
    else
      let footer_start =
        match String.rindex_from_opt raw (len - 2) '\n' with Some i -> i + 1 | None -> hlen
      in
      let line = String.sub raw footer_start (len - footer_start) in
      if not (starts_with ~prefix:footer_tag line) then missing ()
      else
        (* Drop the frame's separator newline before the footer; content
           length is re-checked against [bytes=] in [verify] anyway. *)
        let content_end = max hlen (footer_start - 1) in
        Ok (String.sub raw hlen (content_end - hlen), line)
  end

let parse_footer line =
  let fields = String.split_on_char ' ' (String.trim line) in
  let assoc key =
    List.find_map
      (fun f ->
        match String.index_opt f '=' with
        | Some i when String.sub f 0 i = key ->
            Some (String.sub f (i + 1) (String.length f - i - 1))
        | _ -> None)
      fields
  in
  match (assoc "bytes", assoc "block", assoc "crc") with
  | Some b, Some bl, Some crc -> (
      match (int_of_string_opt b, int_of_string_opt bl) with
      | Some bytes, Some block when bytes >= 0 && block > 0 ->
          let tags = if crc = "" then [] else String.split_on_char '.' crc in
          Some (bytes, block, tags)
      | _ -> None)
  | _ -> None

let verify content (bytes, block, tags) =
  let actual = String.length content in
  if actual <> bytes then Error (Truncated { expected_bytes = bytes; actual_bytes = actual })
  else begin
    let n_blocks = (bytes + block - 1) / block in
    if List.length tags <> n_blocks then Error (Corrupt { offset = 0 })
    else begin
      let bad = ref None in
      List.iteri
        (fun i tag ->
          if !bad = None then begin
            let off = i * block in
            let len = min block (bytes - off) in
            if block_tag (String.sub content off len) <> tag then bad := Some off
          end)
        tags;
      match !bad with None -> Ok content | Some offset -> Error (Corrupt { offset })
    end
  end

let read path =
  match read_file path with
  | exception Sys_error e -> Error (Io e)
  | raw -> (
      match frame raw with
      | Error _ as e -> e
      | Ok (content, footer_line) -> (
          match parse_footer footer_line with
          | None -> Error (Missing_footer { actual_bytes = String.length content })
          | Some spec -> verify content spec))
