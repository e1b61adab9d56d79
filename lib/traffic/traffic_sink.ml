(* Thin framing over Scanner.Stream_sink — see the interface. *)

let stream_name shard = Printf.sprintf "users-%04d" shard

let append_day s ~day rows =
  Scanner.Stream_sink.append_day s ~rows:(List.length rows) (Row.day_payload ~day rows)

let finish s ~users_lo ~users_hi ~hosts =
  Scanner.Stream_sink.finish s ~trailer:(Row.trailer ~users_lo ~users_hi hosts)

let ( let* ) = Result.bind

(* The rule that says a traffic stream is whole: every day block
   decodes as the day at its position, and the trailer decodes. A resume keeps a sealed stream only if it
   passes, and the loader reads every stream through it. *)
let decode_blocks name blocks trailer =
  let* days =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let in_day = Printf.sprintf "stream %S, day %d: %s" name (List.length acc) in
        let* ((day, _) as block) = Result.map_error in_day (Row.decode_day b) in
        if day = List.length acc then Ok (block :: acc)
        else Error (in_day (Printf.sprintf "the block holds day %d" day)))
      (Ok []) blocks
  in
  let* t = Result.map_error (Printf.sprintf "stream %S: %s" name) (Row.decode_trailer trailer) in
  Ok (List.rev days, t)

let stream t shard ~days =
  let name = stream_name shard in
  Scanner.Stream_sink.stream t name ~days ~decode:(fun blocks trailer ->
      Result.map ignore (decode_blocks name blocks trailer))

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
  let name = stream_name shard in
  let* blocks, trailer = Scanner.Stream_sink.read_stream ~dir name in
  let* days, t = decode_blocks name blocks trailer in
  Ok (List.concat_map snd days, t)
