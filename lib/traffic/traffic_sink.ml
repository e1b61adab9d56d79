(* Thin framing over Scanner.Stream_sink — see the interface. *)

let stream_name shard = Printf.sprintf "users-%04d" shard

let stream t shard ~days = Scanner.Stream_sink.stream t (stream_name shard) ~days

let append_day s ~day rows =
  Scanner.Stream_sink.append_day s ~rows:(List.length rows) (Row.day_payload ~day rows)

let finish s ~users_lo ~users_hi ~hosts =
  Scanner.Stream_sink.finish s ~trailer:(Row.trailer ~users_lo ~users_hi hosts)

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
