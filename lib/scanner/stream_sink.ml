(* Directory-backed streaming observation sink.

   A campaign archive normally materializes as one CSV written at the
   end of the run, which means every domain-day row lives in memory
   until then — at --domains 100000 that matrix dominates RSS. A stream
   sink inverts the flow: the scanner appends each day's rows the moment
   the day finishes, into one append-only spool per scan stream (one
   "shard-NNNN" stream per campaign shard — the same stream names the
   checkpoint store uses), and nothing row-shaped is retained in
   memory.

   Layout:

     <dir>/manifest          Atomic_io frame, key=value lines
     <dir>/rows-shard-0000   Durable.Spool of day blocks + trailer
     <dir>/rows-shard-0001   (one spool per shard)
     ...

   Each spool block is an opaque payload produced by the scanner
   (Daily_scan owns the row codec; this module only frames and files
   blocks). The last block of a finished stream is a trailer carrying
   per-domain facts that are only known at campaign end (the trust
   verdicts); a spool without its trailer or footer is an interrupted
   run and readers refuse it until a checkpoint resume completes it.

   Determinism contract: spools are truncated on open, and a checkpoint
   resume replays every completed day, so the streamed archive is
   byte-identical whether the run was interrupted or not, and — because
   stream names and day payloads depend only on the world and the shard
   partition — identical at any --jobs. *)

let manifest_file = "manifest"
let schema = "tlsharm-stream/1"

type t = { dir : string; rows : int Atomic.t }

type stream = {
  sink : t;
  spool : Durable.Spool.writer;
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

let create ~dir ~manifest =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then failwith (dir ^ " exists and is not a directory");
    Durable.Atomic_io.write (Filename.concat dir manifest_file)
      (encode_manifest (("schema", schema) :: manifest));
    Ok { dir; rows = Atomic.make 0 }
  with
  | Failure e -> Error e
  | Sys_error e -> Error e

let dir t = t.dir

let stream t name =
  { sink = t; spool = Durable.Spool.create (spool_path t.dir name); finished = false }

let append_day stream ~rows payload =
  if stream.finished then invalid_arg "Stream_sink.append_day: stream already finished";
  Durable.Spool.add_block stream.spool payload;
  ignore (Atomic.fetch_and_add stream.sink.rows rows)

let finish stream ~trailer =
  if not stream.finished then begin
    Durable.Spool.add_block stream.spool trailer;
    Durable.Spool.close stream.spool;
    stream.finished <- true
  end

let rows_written t = Atomic.get t.rows

let manifest ~dir =
  match Durable.Atomic_io.read (Filename.concat dir manifest_file) with
  | Error e -> Error (Durable.Atomic_io.error_to_string ~what:"stream manifest" e)
  | Ok content -> (
      let kvs = decode_manifest content in
      match List.assoc_opt "schema" kvs with
      | Some s when String.equal s schema -> Ok kvs
      | Some s -> Error (Printf.sprintf "stream manifest: unsupported schema %S" s)
      | None -> Error "stream manifest: missing schema field")

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
  match Durable.Spool.read (spool_path dir name) with
  | Error e -> Error e
  | Ok (_, false) ->
      Error
        (Printf.sprintf
           "stream %S is incomplete (campaign interrupted?) — resume it from its checkpoint \
            to finish the spool"
           name)
  | Ok ([], true) -> Error (Printf.sprintf "stream %S is empty" name)
  | Ok (blocks, true) ->
      (* The trailer is always the last block of a complete stream. *)
      let rec split acc = function
        | [ trailer ] -> (List.rev acc, trailer)
        | b :: rest -> split (b :: acc) rest
        | [] -> assert false
      in
      Ok (split [] blocks)
