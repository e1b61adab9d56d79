(* Append-only block log for streaming archives.

   [Atomic_io] is the right tool for artifacts written once at the end of
   a run, but a streaming campaign sink appends one block per scan day
   for weeks — rewriting the whole file atomically per day would be
   quadratic in campaign length. A spool instead appends framed blocks
   to one open file and flushes after each, so a crash loses at most the
   block being written, and the reader can tell exactly how much of the
   stream is trustworthy:

     #tlsharm-spool v3
     #block 0 bytes=N tag=T
     <N bytes of payload>
     #block 1 bytes=M tag=T'
     ...
     #spool-end blocks=K

   [tag] is {!Atomic_io.block_tag} of the payload. The framing makes
   three states distinguishable at read time: a *complete* spool
   (footer present, count matches), an *incomplete* one (the valid block
   prefix is returned; a torn tail, a payload whose tag no longer
   matches, or any non-canonical frame line ends it), and a foreign file
   (malformed header), which is an error.

   The version names the payloads as much as the frame: v2 blocks were
   drawn from HMAC-DRBG streams where v3 blocks come from the Rng, so a
   v2 spool is refused by version rather than misread.

   A resumed writer ([create ~keep]) continues a spool after the valid
   prefix [read] returned, cutting only what follows it. Only [close]
   fsyncs, and only a writer created with [sync] (the default): a spool
   of a log deleted at the end of its run is never synced. *)

let version = 3
let header = Printf.sprintf "#tlsharm-spool v%d" version

type error = Unreadable of string | Not_a_spool | Old_version of int

let error_to_string ~path = function
  | Unreadable e -> e
  | Not_a_spool -> Printf.sprintf "%s: not a spool file (bad header; this build reads %S)" path header
  | Old_version v ->
      Printf.sprintf
        "%s: spool format v%d predates this build's v%d (the simulation's random streams changed); \
         start the run afresh in a new directory"
        path v version

type writer = {
  oc : out_channel;
  sync : bool;
  mutable blocks : int;
  mutable closed : bool;
}

let block_marker i payload =
  Printf.sprintf "#block %d bytes=%d tag=%s" i (String.length payload)
    (Atomic_io.block_tag payload)

let footer blocks = Printf.sprintf "#spool-end blocks=%d" blocks

(* A kept prefix is cut back to exactly the bytes the writer emitted for
   it: the reader accepted each of its frames only because it was the
   writer's own, so the prefix's length follows from its payloads. *)
let create ?(sync = true) ?(keep = []) path =
  let frame i payload = String.length (block_marker i payload) + 1 + String.length payload in
  let oc =
    if keep = [] then open_out_bin path
    else begin
      Unix.truncate path (List.fold_left ( + ) (String.length header + 1) (List.mapi frame keep));
      open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
    end
  in
  if keep = [] then output_string oc (header ^ "\n");
  flush oc;
  { oc; sync; blocks = List.length keep; closed = false }

let add_block w payload =
  if w.closed then invalid_arg "Durable.Spool.add_block: writer is closed";
  output_string w.oc (block_marker w.blocks payload);
  output_char w.oc '\n';
  output_string w.oc payload;
  w.blocks <- w.blocks + 1;
  (* Flush per block: the crash window is one block, not the whole
     stream. fsync is deferred to [close] — a spool's durability story is
     "resume re-emits the tail", not "every block survives powercuts". *)
  flush w.oc

let close w =
  if not w.closed then begin
    output_string w.oc (footer w.blocks);
    output_char w.oc '\n';
    flush w.oc;
    if w.sync then (try Unix.fsync (Unix.descr_of_out_channel w.oc) with Unix.Unix_error _ -> ());
    close_out w.oc;
    w.closed <- true
  end

(* Frame parsing: blocks are consumed while their frames verify. A frame
   line must be exactly what the writer would emit for the values it
   declares, and a payload must match its tag; the first frame that
   fails either check ends the valid prefix. Only a missing, malformed or
   earlier-version header is an error, because then nothing about the
   file can be trusted. *)
exception Torn

let line_end content pos =
  match String.index_from_opt content pos '\n' with Some i -> i | None -> String.length content

let read_blocks content ~from =
  let len = String.length content in
  let blocks = ref [] in
  let n = ref 0 in
  let complete = ref false in
  (try
     let pos = ref from in
     while !pos < len do
       let e = line_end content !pos in
       if e >= len then raise Torn;
       let marker = String.sub content !pos (e - !pos) in
       if String.equal marker (footer !n) then begin
         complete := true;
         pos := len
       end
       else
         match Scanf.sscanf_opt marker "#block %d bytes=%d tag=%s" (fun i b _ -> (i, b)) with
         | Some (i, bytes) when i = !n && bytes >= 0 && e + 1 + bytes <= len ->
             let payload = String.sub content (e + 1) bytes in
             if not (String.equal marker (block_marker i payload)) then raise Torn;
             blocks := payload :: !blocks;
             incr n;
             pos := e + 1 + bytes
         | _ -> raise Torn
     done
   with Torn -> ());
  (List.rev !blocks, !complete)

(* An earlier version is recognized only by its exact header line. *)
let old_version hdr =
  match Scanf.sscanf_opt hdr "#tlsharm-spool v%u%!" Fun.id with
  | Some v when v < version && String.equal hdr (Printf.sprintf "#tlsharm-spool v%d" v) -> Some v
  | _ -> None

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (Unreadable e)
  | content -> (
      let hdr_end = line_end content 0 in
      let hdr = String.sub content 0 hdr_end in
      if hdr_end < String.length content && String.equal hdr header then
        Ok (read_blocks content ~from:(hdr_end + 1))
      else match old_version hdr with Some v -> Error (Old_version v) | None -> Error Not_a_spool)
