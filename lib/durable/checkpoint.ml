(* Versioned on-disk layout for resumable campaigns.

   A checkpoint directory holds one manifest plus one subdirectory per
   *stream* — an independent sequence of per-day state snapshots. A
   campaign has one stream per shard ("shard-0007"). Layout:

     <dir>/manifest            k=v lines describing the run (version,
                               mode, seed, days, …), written once
     <dir>/<stream>/day-0004.ckpt
                               opaque payload for virtual day 4, written
                               by the campaign after that day completes

   Every file goes through Atomic_io, so a crash mid-write leaves either
   the previous day's files or nothing — never a torn snapshot. Readers
   treat any unreadable/corrupt day file as the end of the valid prefix,
   which is exactly the fallback the resume path wants: continue from
   the last day that verifies. *)

exception Mismatch of string
(* Raised when replayed computation diverges from a recorded checkpoint
   (wrong seed, wrong world, code drift). This is a determinism-contract
   violation, not an I/O problem: it must abort the run loudly rather
   than be retried or degraded, so supervision deliberately re-raises
   it. *)

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

type t = { dir : string }

let dir t = t.dir

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* --- Manifest ---------------------------------------------------------------- *)

(* Version 1 stores also held a serial/ stream from a campaign runner
   that no longer exists; version 2 stores hold shard streams only. An
   old store is refused by version rather than re-scanned beside its
   stale stream. *)
let version = 2
let manifest_path dir = Filename.concat dir "manifest"

let render_manifest kvs =
  let kvs = ("version", string_of_int version) :: kvs in
  let b = Buffer.create 256 in
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%s\n" k v)) kvs;
  Buffer.contents b

let parse_kv_lines content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '=' with
           | None -> None
           | Some i ->
               Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))

let manifest t =
  match Atomic_io.read (manifest_path t.dir) with
  | Error e -> Error (Atomic_io.error_to_string ~what:"manifest" e)
  | Ok content -> (
      let kvs = parse_kv_lines content in
      match List.assoc_opt "version" kvs with
      | Some v when int_of_string_opt v = Some version -> Ok kvs
      | Some v ->
          Error
            (Printf.sprintf
               "manifest: unsupported checkpoint version %s (this build reads version %d); \
                start the campaign afresh in a new directory"
               v version)
      | None -> Error "manifest: no version field")

let find t key = match manifest t with Ok kvs -> List.assoc_opt key kvs | Error _ -> None

(* [init] is idempotent for the same run parameters: creating a store
   where a matching manifest already exists is how a resumed campaign
   re-attaches. A *different* manifest means the directory belongs to
   another run, and silently mixing day files from two runs would be far
   worse than refusing. *)
let init ~dir ~manifest:kvs =
  mkdir_p dir;
  let path = manifest_path dir in
  let fresh = render_manifest kvs in
  if Sys.file_exists path then
    match Atomic_io.read path with
    | Ok existing when existing = fresh -> Ok { dir }
    | Ok _ -> (
        match manifest { dir } with
        | Error e -> Error (dir ^ ": " ^ e)
        | Ok _ ->
            Error
              (Printf.sprintf
                 "checkpoint directory %s already holds a different campaign (manifest mismatch)"
                 dir))
    | Error e -> Error (Atomic_io.error_to_string ~what:(path ^ ": manifest") e)
  else begin
    Atomic_io.write path fresh;
    Ok { dir }
  end

let attach ~dir =
  if not (Sys.file_exists (manifest_path dir)) then
    Error (Printf.sprintf "%s: no checkpoint manifest found" dir)
  else
    match manifest { dir } with Ok _ -> Ok { dir } | Error e -> Error (dir ^ ": " ^ e)

(* --- Streams ----------------------------------------------------------------- *)

type stream = { store : t; name : string }

let stream store name =
  let s = { store; name } in
  mkdir_p (Filename.concat store.dir name);
  s

let day_path s ~day = Filename.concat (Filename.concat s.store.dir s.name) (Printf.sprintf "day-%04d.ckpt" day)

let write_day s ~day payload = Atomic_io.write (day_path s ~day) payload

let read_day s ~day =
  let path = day_path s ~day in
  if not (Sys.file_exists path) then Error (Atomic_io.Io (path ^ ": no such checkpoint"))
  else Atomic_io.read path

(* The resume contract: day k's snapshot is only trustworthy if every
   snapshot before it also verifies, because day k's state builds on the
   days before it. So the usable history is the longest contiguous
   verified prefix starting at day 0 — a corrupt day-3 file limits
   resume to day 3 even if day-4 reads fine. *)
let valid_prefix ?(decode = fun ~day:_ _ -> true) s ~days =
  let rec go day =
    if day >= days then day
    else
      match read_day s ~day with
      | Ok payload when decode ~day payload -> go (day + 1)
      | Ok _ | Error _ -> day
  in
  go 0
