(* Thin framing over Scanner.Stream_sink — see the interface. *)

type t = Scanner.Stream_sink.t
type stream = Scanner.Stream_sink.stream

let stream_name shard = Printf.sprintf "users-%04d" shard

let create = Scanner.Stream_sink.create
let with_sink = Scanner.Stream_sink.with_sink
let dir = Scanner.Stream_sink.dir
let stream t shard ~days =
  Scanner.Stream_sink.stream t (stream_name shard) ~days ~checked:(fun _ -> true)

let append_day s ~day rows =
  Scanner.Stream_sink.append_day s ~rows:(List.length rows) (Row.day_payload ~day rows)

let finish s ~users_lo ~users_hi ~hosts =
  Scanner.Stream_sink.finish s ~trailer:(Row.trailer ~users_lo ~users_hi hosts)

let rows_written = Scanner.Stream_sink.rows_written
let manifest ~dir = Scanner.Stream_sink.manifest ~dir

let ( let* ) = Result.bind

let decode_blocks blocks trailer =
  let* days =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let* day, rows = Row.decode_day b in
        Ok ((day, rows) :: acc))
      (Ok []) blocks
  in
  let* t = Row.decode_trailer trailer in
  Ok (List.rev days, t)

let shard_ids ~dir =
  let* names = Scanner.Stream_sink.stream_names ~dir in
  Ok
    (List.filter_map
       (fun n ->
         if String.starts_with ~prefix:"users-" n then
           int_of_string_opt (String.sub n 6 (String.length n - 6))
         else None)
       names)

let read_shard ~dir ~shard =
  let* blocks, trailer = Scanner.Stream_sink.read_stream ~dir (stream_name shard) in
  let* days, t = decode_blocks blocks trailer in
  Ok (List.concat_map snd days, t)

let fold_rows ~dir ~init ~f =
  let* names = Scanner.Stream_sink.stream_names ~dir in
  let* acc, hosts =
    List.fold_left
      (fun state name ->
        let* acc, hosts = state in
        let* blocks, trailer = Scanner.Stream_sink.read_stream ~dir name in
        let* days, (_, _, shard_hosts) = decode_blocks blocks trailer in
        let acc =
          List.fold_left
            (fun acc (_, rows) -> List.fold_left f acc rows)
            acc days
        in
        Ok (acc, (match hosts with [] -> shard_hosts | _ -> hosts)))
      (Ok (init, []))
      names
  in
  Ok (acc, hosts)
