(* Directory-backed streaming observation sink, and the run's durable log.

   Every campaign and traffic run writes its rows here: the scanner
   appends each day's rows the moment the day finishes, into one
   append-only spool per scan stream (one "shard-NNNN" stream per
   campaign shard), and nothing row-shaped is held in memory — at
   --domains 100000 a row matrix would dominate RSS. A CSV archive is an
   export of this log, read back after the run.

   Layout:

     <dir>/manifest          Atomic_io frame, key=value lines
     <dir>/rows-shard-0000   Durable.Spool of day blocks + trailer
     <dir>/rows-shard-0001   (one spool per shard)
     ...

   Each spool block is an opaque payload produced by the scanner
   (Daily_scan owns the block codec; this module only frames and files
   blocks). The last block of a finished stream is a trailer carrying
   per-domain facts that are only known at campaign end (the trust
   verdicts); a spool without its trailer or footer is an interrupted
   run and readers refuse it until a resume completes it.

   The directory is also the run's crash-recovery log. The manifest pins
   the run: [create] re-attaches only to an identical manifest, so two
   runs' spools never mix. [stream] applies the one resume rule: a
   sealed spool holding the whole run is kept untouched if the caller's
   decoder accepts it (and refused if not), and any other is re-run
   from day 0 with each re-emitted block compared against the block
   recorded at its position; the spool is written only past the last
   recorded block, so a refused re-run changes nothing. A re-run stream
   therefore ends byte-identical to an uninterrupted run's, and,
   because stream names and day payloads depend only on the world and
   the shard partition, identical at any --jobs.

   A log [with_sink] makes in a temporary directory is deleted when the
   run ends, so neither its manifest nor its spools are fsynced. *)

let manifest_file = "manifest"
let schema = "tlsharm-stream/4"

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

type t = { dir : string; sync : bool; rows : int Atomic.t }

type stream = {
  sink : t;
  name : string;
  record : string list; (* the spool's valid block prefix when opened *)
  mutable unmatched : string list; (* recorded blocks not yet compared *)
  mutable spool : Durable.Spool.writer option; (* opened at the first new block *)
  mutable finished : bool;
}

let spool_path dir name = Filename.concat dir ("rows-" ^ name)

let encode_manifest kvs =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      if String.contains k '=' || String.contains k '\n' || String.contains v '\n' then
        invalid_arg "Stream_sink: manifest keys/values must be single-line, '='-free keys";
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    kvs;
  Buffer.contents b

let decode_manifest content =
  String.split_on_char '\n' content
  |> List.filter (fun l -> not (String.equal l ""))
  |> List.map (fun l ->
         match String.index_opt l '=' with
         | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> (l, ""))

let check_schema kvs =
  match List.assoc_opt "schema" kvs with
  | Some s when String.equal s schema -> Ok kvs
  | Some s ->
      Error
        (Printf.sprintf
           "stream manifest: unsupported schema %S (this build reads %S); start the run afresh \
            in a new directory"
           s schema)
  | None -> Error "stream manifest: missing schema field"

let manifest ~dir =
  match Durable.Atomic_io.read (Filename.concat dir manifest_file) with
  | Error e -> Error (Durable.Atomic_io.error_to_string ~what:"stream manifest" e)
  | Ok content -> check_schema (decode_manifest content)

(* [create] is idempotent for the same run: re-creating a sink whose
   manifest matches byte for byte is how a resumed run re-attaches. A
   different manifest means the directory belongs to another run, and
   silently mixing its spools with this run's would be far worse than
   refusing. *)
let open_sink ~sync ~dir ~manifest:kvs =
  let fresh = encode_manifest (("schema", schema) :: kvs) in
  let path = Filename.concat dir manifest_file in
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory");
    let attach () = Ok { dir; sync; rows = Atomic.make 0 } in
    if not (Sys.file_exists path) then begin
      Durable.Atomic_io.write ~sync path fresh;
      attach ()
    end
    else
      match Durable.Atomic_io.read path with
      | Ok existing when String.equal existing fresh -> attach ()
      | Ok existing -> (
          match check_schema (decode_manifest existing) with
          | Error e -> Error (dir ^ ": " ^ e)
          | Ok _ ->
              Error
                (Printf.sprintf
                   "%s already holds a different run (manifest mismatch) — pick a fresh \
                    directory, or resume that run"
                   dir))
      | Error e -> Error (Durable.Atomic_io.error_to_string ~what:(path ^ ": stream manifest") e)
  with
  | Failure e -> Error e
  | Sys_error e -> Error e

let create = open_sink ~sync:true

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A run with no directory of its own logs to a private temporary one,
   so the scanner and the population never hold rows; the log lives
   exactly as long as the run that reads it back. Nothing in it is
   fsynced: the log recovers nothing once it is gone, and deleting
   synced files costs more than the whole scan on some disks. *)
let with_sink ?dir ~manifest f =
  match dir with
  | Some dir -> Result.bind (create ~dir ~manifest) f
  | None ->
      let dir = Filename.temp_dir "tlsharm-log" "" in
      Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () -> Result.bind (open_sink ~sync:false ~dir ~manifest) f)

let dir t = t.dir

type 'a opened = Kept of 'a | Rerun of stream

(* The trailer is always the last block of a sealed stream. *)
let split_trailer blocks =
  match List.rev blocks with
  | trailer :: rev_days -> (List.rev rev_days, trailer)
  | [] -> invalid_arg "Stream_sink.split_trailer: no blocks"

let stream t name ~days ~decode =
  let path = spool_path t.dir name in
  match Durable.Spool.read path with
  | Ok (blocks, true) when List.length blocks = days + 1 -> (
      let day_blocks, trailer = split_trailer blocks in
      match decode day_blocks trailer with Ok v -> Kept v | Error e -> raise (Mismatch e))
  | Error (Durable.Spool.Old_version _ as e) ->
      raise (Mismatch (Durable.Spool.error_to_string ~path e))
  | read ->
      let record = match read with Ok (blocks, _) -> blocks | Error _ -> [] in
      Rerun
        { sink = t; name; record; unmatched = record; spool = None; finished = false }

(* The spool is first written once every recorded block has matched,
   cut back to that prefix, so a diverging re-run leaves the log as it
   found it. *)
let writer stream =
  match stream.spool with
  | Some w -> w
  | None ->
      let path = spool_path stream.sink.dir stream.name in
      let w = Durable.Spool.create ~sync:stream.sink.sync ~keep:stream.record path in
      stream.spool <- Some w;
      w

let matched stream = List.length stream.record - List.length stream.unmatched

(* Every block a re-run emits goes through here: compared while the
   spool still holds recorded blocks, appended after. *)
let emit stream payload =
  match stream.unmatched with
  | recorded :: rest ->
      if not (String.equal recorded payload) then
        mismatch
          "stream %S: re-run block %d diverges from the recorded one (different world, seed or \
           code?)"
          stream.name (matched stream);
      stream.unmatched <- rest
  | [] -> Durable.Spool.add_block (writer stream) payload

let append_day stream ~rows payload =
  if stream.finished then invalid_arg "Stream_sink.append_day: stream already finished";
  emit stream payload;
  ignore (Atomic.fetch_and_add stream.sink.rows rows)

let finish stream ~trailer =
  if not stream.finished then begin
    emit stream trailer;
    if stream.unmatched <> [] then
      mismatch "stream %S: the log records %d blocks, the re-run emits %d" stream.name
        (List.length stream.record) (matched stream);
    Durable.Spool.close (writer stream);
    stream.finished <- true
  end

let rows_written t = Atomic.get t.rows

let stream_names ~dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun f ->
             if String.length f > 5 && String.equal (String.sub f 0 5) "rows-" then
               Some (String.sub f 5 (String.length f - 5))
             else None)
      |> List.sort String.compare
      |> Result.ok

let read_stream ~dir name =
  let path = spool_path dir name in
  match Durable.Spool.read path with
  | Error e -> Error (Durable.Spool.error_to_string ~path e)
  | Ok (_, false) ->
      Error
        (Printf.sprintf
           "stream %S is incomplete (run interrupted, or a block damaged) — resume the run to \
            finish the spool"
           name)
  | Ok ([], true) -> Error (Printf.sprintf "stream %S is empty" name)
  | Ok (blocks, true) -> Ok (split_trailer blocks)
