(* The longitudinal campaign of Sections 4.3 and 4.4: connect to every
   domain daily for nine weeks, recording the STEK identifier from the
   issued ticket and the server's (EC)DHE public values. Two sweeps per
   day, mirroring the paper's data sources:

   - the default sweep (all suites offered, ticket extension on) yields
     the STEK identifier, the lifetime hint and — because almost every
     server prefers ECDHE — the ECDHE server value (the paper's
     ECDHE-priority scans);
   - a DHE-only sweep (the paper used Censys' daily DHE scans) yields the
     DHE server value, or nothing for servers without DHE.

   Domains absent from that day's Top Million list are skipped, so list
   churn shows up in the data exactly as it did for the paper.

   This module holds each decision about the campaign's data once: the
   sweep schedule ([sweep], which the cross-vantage scan runs too), the
   row codec (one encoder and one parser per field group, shared by the
   CSV, the run log's day blocks and its stream trailers), and the rule
   that says a run-log stream is whole ([decode_stream], by which the
   loader reads a stream and a resume keeps one). *)

type day_record = {
  day : int; (* day index from study start *)
  present : bool; (* domain was in the list that day *)
  default_ok : bool;
  stek_id : string option;
  ticket_hint : int option;
  ecdhe_value : string option;
  dhe_ok : bool;
  dhe_value : string option;
}

type domain_series = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool; (* ever presented a trusted chain *)
  stable : bool; (* in the list every day *)
  days : day_record array;
}

type t = {
  start_day : int;
  n_days : int;
  series : domain_series array;
}

(* --- Row codec -------------------------------------------------------------
   Campaigns serialize to a flat CSV (one row per domain-day) so they can
   be archived and re-analyzed without re-running nine weeks of scans —
   the project's analog of the paper publishing its data on scans.io.

   Every campaign row is written from two field groups, each with one
   encoder and one parser here:
   - the domain fields [domain,rank,weight,trusted,stable]: the head of a
     CSV row, and a member line of a run-log stream's trailer;
   - the day fields [default_ok,stek_id,ticket_hint,ecdhe_value,dhe_ok,
     dhe_value]: the tail of a CSV row, and a present member's row in a
     run-log day block. An absent value is written as [empty]: [""] in
     the CSV, ["-"] in a day block. *)

let csv_header =
  "domain,rank,weight,trusted,stable,day,present,default_ok,stek_id,ticket_hint,ecdhe_value,dhe_ok,dhe_value"

(* %.17g round-trips every float exactly; %.6f silently truncated
   Horvitz-Thompson weights like 142.857142857… and skewed every
   weighted tally recomputed from an archived campaign. *)
let domain_fields ~domain ~rank ~weight ~trusted ~stable =
  Printf.sprintf "%s,%d,%.17g,%b,%b" domain rank weight trusted stable

let parse_domain_fields = function
  | [ domain; rank; weight; trusted; stable ] -> (
      match
        ( int_of_string_opt rank,
          float_of_string_opt weight,
          bool_of_string_opt trusted,
          bool_of_string_opt stable )
      with
      | Some rank, Some weight, Some trusted, Some stable -> Some (domain, rank, weight, trusted, stable)
      | _ -> None)
  | _ -> None

let day_fields ~empty r =
  let opt = function None -> empty | Some s -> s in
  String.concat ","
    [
      string_of_bool r.default_ok;
      opt r.stek_id;
      opt (Option.map string_of_int r.ticket_hint);
      opt r.ecdhe_value;
      string_of_bool r.dhe_ok;
      opt r.dhe_value;
    ]

let parse_day_fields ~empty ~day ~present = function
  | [ ok; stek; hint; ecdhe; dhe_ok; dhe ] -> (
      let opt s = if String.equal s empty then None else Some s in
      let hint =
        if String.equal hint empty then Some None else Option.map Option.some (int_of_string_opt hint)
      in
      match (bool_of_string_opt ok, hint, bool_of_string_opt dhe_ok) with
      | Some default_ok, Some ticket_hint, Some dhe_ok ->
          Some
            {
              day;
              present;
              default_ok;
              stek_id = opt stek;
              ticket_hint;
              ecdhe_value = opt ecdhe;
              dhe_ok;
              dhe_value = opt dhe;
            }
      | _ -> None)
  | _ -> None

(* Rows are batched through a [Buffer] and handed to the durable writer
   in ~1MB slabs: a 10k-domain, 63-day campaign is ~630k rows, and
   per-row write calls dominated save time on the seed. *)
let save_flush_threshold = 1 lsl 20

(* The archive is written atomically (temp + fsync + rename) and framed
   with a checksum footer, so a crash mid-save leaves the previous
   archive intact and a damaged file is detected — with a byte offset —
   at [load] time instead of silently skewing a re-analysis. *)
let save t path =
  Durable.Atomic_io.with_writer path (fun w ->
      let buf = Buffer.create (64 * 1024) in
      let flush () =
        Durable.Atomic_io.add w (Buffer.contents buf);
        Buffer.clear buf
      in
      Printf.bprintf buf "#tlsharm-campaign,start_day=%d,n_days=%d\n" t.start_day t.n_days;
      Buffer.add_string buf csv_header;
      Buffer.add_char buf '\n';
      Array.iter
        (fun s ->
          let head =
            domain_fields ~domain:s.domain ~rank:s.rank ~weight:s.weight ~trusted:s.trusted
              ~stable:s.stable
          in
          Array.iter
            (fun r ->
              Buffer.add_string buf
                (String.concat ","
                   [ head; string_of_int r.day; string_of_bool r.present; day_fields ~empty:"" r ]);
              Buffer.add_char buf '\n';
              if Buffer.length buf >= save_flush_threshold then flush ())
            s.days)
        t.series;
      flush ())

(* Strip one trailing empty element left by a final newline; interior
   empty lines still reach the row parser and are reported as bad rows. *)
let content_lines content =
  match List.rev (String.split_on_char '\n' content) with
  | "" :: rest -> List.rev rest
  | _ as all -> List.rev all

let blank_record day =
  {
    day;
    present = false;
    default_ok = false;
    stek_id = None;
    ticket_hint = None;
    ecdhe_value = None;
    dhe_ok = false;
    dhe_value = None;
  }

let load path =
  let ( let* ) = Result.bind in
  (* Every archive is checksum-verified: truncation and bit flips become
     errors naming the damage, and a file without the durable frame is
     refused rather than trusted. *)
  let* content =
    Result.map_error
      (Durable.Atomic_io.error_to_string ~what:"campaign")
      (Durable.Atomic_io.read path)
  in
  let* meta, rows =
    match content_lines content with
    | [] -> Error "campaign: empty file"
    | meta :: rows -> Ok (meta, rows)
  in
  let* start_day, n_days =
    match Scanf.sscanf_opt meta "#tlsharm-campaign,start_day=%d,n_days=%d%!" (fun a b -> (a, b)) with
    | Some (a, b) when a >= 0 && b > 0 -> Ok (a, b)
    | Some (_, b) when b <= 0 -> Error (Printf.sprintf "campaign: invalid n_days=%d in metadata" b)
    | Some (a, _) -> Error (Printf.sprintf "campaign: invalid start_day=%d in metadata" a)
    | None -> Error "campaign: bad or missing metadata line"
  in
  (* Each domain's series and the days it has a row for. *)
  let by_domain : (string, domain_series * bool array) Hashtbl.t = Hashtbl.create 4096 in
  let order = ref [] in
  let parse_row line =
    let fields = String.split_on_char ',' line in
    let row =
      match fields with
      | domain :: rank :: weight :: trusted :: stable :: day :: present :: rest -> (
          match
            ( parse_domain_fields [ domain; rank; weight; trusted; stable ],
              int_of_string_opt day,
              bool_of_string_opt present )
          with
          | Some meta, Some day, Some present ->
              Option.map (fun r -> (meta, r)) (parse_day_fields ~empty:"" ~day ~present rest)
          | _ -> None)
      | _ -> None
    in
    Option.to_result ~none:("campaign: bad row: " ^ line) row
  in
  let rec read_rows = function
    | [] -> Ok ()
    | line :: rest ->
        let* (domain, rank, weight, trusted, stable), record = parse_row line in
        (* A day outside [0, n_days) means the file contradicts its
           own metadata; dropping the row silently (as earlier
           versions did) hides the corruption from the caller. *)
        let* () =
          if record.day >= 0 && record.day < n_days then Ok ()
          else
            Error
              (Printf.sprintf "campaign: day %d out of range [0,%d) in row: %s" record.day
                 n_days line)
        in
        let series, seen =
          match Hashtbl.find_opt by_domain domain with
          | Some entry -> entry
          | None ->
              let entry =
                ( { domain; rank; weight; trusted; stable; days = Array.init n_days blank_record },
                  Array.make n_days false )
              in
              Hashtbl.replace by_domain domain entry;
              order := domain :: !order;
              entry
        in
        (* One row per (domain, day): a repeated row would silently
           overwrite its twin, and a missing one would load as absent. *)
        let* () =
          if seen.(record.day) then
            Error (Printf.sprintf "campaign: repeated row for %s day %d" domain record.day)
          else Ok ()
        in
        seen.(record.day) <- true;
        series.days.(record.day) <- record;
        read_rows rest
  in
  let* () = read_rows (match rows with h :: rest when String.equal h csv_header -> rest | _ -> rows) in
  let series = List.rev !order |> List.map (Hashtbl.find by_domain) in
  let* () =
    List.fold_left
      (fun acc (s, seen) ->
        let* () = acc in
        match Array.find_index not seen with
        | Some day -> Error (Printf.sprintf "campaign: no row for %s day %d" s.domain day)
        | None -> Ok ())
      (Ok ()) series
  in
  Ok { start_day; n_days; series = Array.of_list (List.map fst series) }

(* --- Day block codec ---------------------------------------------------------

   One block per completed scan day per stream (a stream = one shard of
   the campaign), appended to the stream's spool: that day's observed
   row for every member domain, in member order.

     day=4
     rows=R, then R row lines

   The codec is deterministic, so a clean re-run of a shard re-encodes
   each recorded day to the same bytes: that is what the resume rule
   ({!Stream_sink.stream}) compares. *)

(* A present member's row is ["1,"] and its day fields, so the loader
   rebuilds the archive without scanning; an absent one is ["0"]. *)
let day_payload ~day ~(rows : day_record option array) =
  let b = Buffer.create (64 + (16 * Array.length rows)) in
  Printf.bprintf b "day=%d\nrows=%d\n" day (Array.length rows);
  Array.iter
    (function
      | None -> Buffer.add_string b "0\n"
      | Some r ->
          Buffer.add_string b "1,";
          Buffer.add_string b (day_fields ~empty:"-" r);
          Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let parse_row ~day l =
  if l = "0" then Ok None
  else
    match String.split_on_char ',' l with
    | "1" :: fields -> (
        match parse_day_fields ~empty:"-" ~day ~present:true fields with
        | Some r -> Ok (Some r)
        | None -> Error (Printf.sprintf "day block: bad row %S" l))
    | _ -> Error (Printf.sprintf "day block: bad row %S" l)

let ( let* ) = Result.bind

(* A [KEY=N] line with N a non-negative integer. *)
let count_line ~what key l =
  match String.index_opt l '=' with
  | Some i when String.equal (String.sub l 0 i) key -> (
      let v = String.sub l (i + 1) (String.length l - i - 1) in
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Printf.sprintf "%s: bad %s value %S" what key v))
  | _ -> Error (Printf.sprintf "%s: expected %s=, got %S" what key l)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

(* Strict decode: the row count must match the stream's member count
   and the rows it declares, so a damaged-but-frame-valid block (or one
   from a different world size) cannot slip into the loader. *)
let decode_day ~members payload =
  match content_lines payload with
  | day_line :: rows_line :: row_lines ->
      let* day = count_line ~what:"day block" "day" day_line in
      let* n_rows = count_line ~what:"day block" "rows" rows_line in
      let* () =
        if n_rows = members then Ok ()
        else Error (Printf.sprintf "day block: covers %d domains, stream has %d" n_rows members)
      in
      let* () =
        if List.length row_lines = n_rows then Ok ()
        else
          Error
            (Printf.sprintf "day block: declares %d rows, carries %d" n_rows
               (List.length row_lines))
      in
      let* rows = map_result (parse_row ~day) row_lines in
      Ok (day, Array.of_list rows)
  | _ -> Error "day block: truncated payload"

(* --- Streamed archive ----------------------------------------------------------

   The streamed representation of one scan stream: one spool block per
   day (the positional rows above), and a trailer block carrying what is
   only known at campaign end: each member's domain fields, with its
   trust verdict, and the stream's loss funnel, which a kept stream
   restores from.

     trailer
     domains=N, then N domain-field lines
     funnel=M, then M {!Faults.Funnel.to_lines} lines

   Member *order* is the contract: day blocks reference domains
   positionally, and the trailer names them, which keeps a 100k-domain
   day block free of 100k repeated domain/rank/weight prefixes. *)

let stream_finish s ~trusted ~funnel ~(domains : Simnet.World.domain array) =
  let b = Buffer.create (32 * Array.length domains) in
  Printf.bprintf b "trailer\ndomains=%d\n" (Array.length domains);
  Array.iter
    (fun d ->
      let domain = Simnet.World.domain_name d in
      Buffer.add_string b
        (domain_fields ~domain ~rank:(Simnet.World.domain_rank d)
           ~weight:(Simnet.World.domain_weight d) ~trusted:(trusted domain)
           ~stable:(Simnet.World.domain_stable d));
      Buffer.add_char b '\n')
    domains;
  let flines = Faults.Funnel.to_lines funnel in
  Printf.bprintf b "funnel=%d\n" (List.length flines);
  List.iter (Printf.bprintf b "%s\n") flines;
  Stream_sink.finish s ~trailer:(Buffer.contents b)

let decode_trailer trailer =
  let what = "trailer" in
  let rec take n acc rest =
    if n = 0 then Ok (List.rev acc, rest)
    else match rest with l :: tl -> take (n - 1) (l :: acc) tl | [] -> Error "trailer: truncated"
  in
  let section key = function
    | l :: rest ->
        let* n = count_line ~what key l in
        take n [] rest
    | [] -> Error (Printf.sprintf "trailer: missing %s section" key)
  in
  let parse_meta l =
    Option.to_result
      ~none:(Printf.sprintf "trailer: bad entry %S" l)
      (parse_domain_fields (String.split_on_char ',' l))
  in
  match content_lines trailer with
  | "trailer" :: rest ->
      let* metas, rest = section "domains" rest in
      let* funnel_lines, rest = section "funnel" rest in
      let* () = match rest with [] -> Ok () | l :: _ -> Error (Printf.sprintf "trailer: trailing data %S" l) in
      let* metas = map_result parse_meta metas in
      let* funnel = Faults.Funnel.of_lines funnel_lines in
      Ok (metas, funnel)
  | _ -> Error "trailer: malformed"

(* The one rule that says a stream is whole: its trailer decodes, it
   holds one block per day, and each block decodes as the day at its
   position with one row per trailer member. The loader reads a stream
   through it, and a resume keeps a sealed stream only if it passes. *)
let decode_stream ~n_days name blocks trailer =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* metas, funnel =
    Result.map_error (Printf.sprintf "stream %S: %s" name) (decode_trailer trailer)
  in
  let members = List.length metas in
  let* () =
    if List.length blocks = n_days then Ok ()
    else err "stream %S holds %d day blocks, manifest says %d" name (List.length blocks) n_days
  in
  let series =
    List.map
      (fun (domain, rank, weight, trusted, stable) ->
        { domain; rank; weight; trusted; stable; days = Array.init n_days blank_record })
      metas
  in
  let* _ =
    List.fold_left
      (fun acc block ->
        let* day = acc in
        let* block_day, rows =
          Result.map_error (Printf.sprintf "stream %S, day %d: %s" name day) (decode_day ~members block)
        in
        let* () =
          if block_day = day then Ok () else err "stream %S: expected day %d, found day %d" name day block_day
        in
        List.iteri (fun i s -> Option.iter (fun r -> s.days.(day) <- r) rows.(i)) series;
        Ok (day + 1))
      (Ok 0) blocks
  in
  Ok (series, funnel)

(* The daily sweep schedule, as offsets into each study day: the default
   sweep (all suites, tickets on) at 00:30, the DHE-only sweep at 02:00. *)
let default_sweep_at = 30 * Simnet.Clock.minute
let dhe_sweep_at = 2 * Simnet.Clock.hour

(* The one daily loop every scanner in the project runs ({!scan_stream}
   per campaign shard, {!Cross_vantage} per region): each day, the
   domains in that day's list, in array order, get the default sweep at
   00:30 and then the DHE-only sweep at 02:00, on [clock]. Per-day
   scratch is reused across days, and both sweeps touch only the day's
   present members. *)
let sweep ?(obs = Obs.Recorder.null) ~clock ~default_probe ~dhe_probe
    ~(domains : Simnet.World.domain array) ~days ?(progress = ignore) ~on_default ~on_dhe
    ~end_day () =
  let start = Simnet.Clock.now clock in
  (* [scan.days] is a gauge (max-merge): every stream of one campaign
     scans the same day count, so a counter would multiply it by the
     shard count under parallel execution. *)
  if days > 0 then Obs.Recorder.gauge_max obs "scan.days" days;
  let present = Array.make (max (Array.length domains) 1) 0 in
  for day = 0 to days - 1 do
    progress day;
    let n_present = ref 0 in
    Array.iteri
      (fun i d ->
        if Simnet.World.in_list_on_day d ~day then begin
          present.(!n_present) <- i;
          incr n_present
        end)
      domains;
    let n_present = !n_present in
    let probe_present probe ~at on_conn =
      Simnet.Clock.set clock (start + (day * Simnet.Clock.day) + at);
      for p = 0 to n_present - 1 do
        let i = present.(p) in
        let o, _ = Probe.connect probe ~domain:(Simnet.World.domain_name domains.(i)) in
        on_conn ~day i o
      done
    in
    (* The [scan.day] span covers exactly the sweep-to-sweep window; the
       clock is positioned before the span opens so its simulated
       duration is not midnight-to-midnight. *)
    Simnet.Clock.set clock (start + (day * Simnet.Clock.day) + default_sweep_at);
    Obs.Recorder.span obs ~name:"scan.day"
      ~attrs:[ ("day", string_of_int day) ]
      ~now:(fun () -> Simnet.Clock.now clock)
      (fun () ->
        probe_present default_probe ~at:default_sweep_at on_default;
        probe_present dhe_probe ~at:dhe_sweep_at (fun ~day i o ->
            Obs.Recorder.incr obs "scan.domain_days";
            on_dhe ~day i o));
    end_day ~day ~present:n_present
  done;
  (* Leave the clock at the end of the campaign. *)
  Simnet.Clock.set clock (start + (days * Simnet.Clock.day))

(* Scan [domains] for [days] days, driving [clock] (both probes must read
   it, and both must share one funnel). This is the sequential inner loop
   each shard of {!Parallel_campaign} runs over its connectivity-closed
   domain subset on a private clock. The probe-call sequence for a fixed
   domain array never depends on which worker runs it, which is what
   makes shard results independent of worker count.

   Each completed day's block is appended to [sink]; the stream the
   caller opened checks it against the block recorded at its position.
   A resume re-executes completed days instead of deserializing the
   world mid-flight (endpoint RNGs, kex caches, session caches and STEK
   rotations make the world state surface enormous); determinism makes
   the re-execution exact, and the block compare proves it. *)
let scan_stream ~sink ~obs ~clock ~default_probe ~dhe_probe ~(domains : Simnet.World.domain array)
    ~days ~progress =
  let n = Array.length domains in
  (* This day's rows, the block payload source, reused across days: the
     default sweep fills a present member's row, the DHE sweep completes
     it. *)
  let rows : day_record option array = Array.make n None in
  sweep ~obs ~clock ~default_probe ~dhe_probe ~domains ~days ~progress
    ~on_default:(fun ~day i (o : Observation.conn) ->
      rows.(i) <-
        Some
          {
            (blank_record day) with
            present = true;
            default_ok = o.ok;
            stek_id = o.stek_id;
            ticket_hint = o.ticket_hint;
            ecdhe_value = o.ecdhe_value;
          })
    ~on_dhe:(fun ~day:_ i (o : Observation.conn) ->
      rows.(i) <- Option.map (fun r -> { r with dhe_ok = o.ok; dhe_value = o.dhe_value }) rows.(i))
    ~end_day:(fun ~day ~present ->
      Stream_sink.append_day sink ~rows:present (day_payload ~day ~rows);
      Array.fill rows 0 n None)
    ();
  let trusted name =
    Option.value ~default:false (Hashtbl.find_opt default_probe.Probe.trust_cache name)
  in
  stream_finish sink ~trusted ~funnel:(Probe.funnel default_probe) ~domains

(* --- Streamed archive loader -------------------------------------------------

   Reassemble a campaign from a {!Stream_sink} directory: manifest for
   the day range and the world size, one spool per stream, each read
   through {!decode_stream}. Together the streams must name exactly the
   manifest's [n_domains] domains, each once, so a log missing a stream
   is refused rather than read as a smaller world. The result is sorted
   by (rank, domain), the world's order, which is the row order of every
   campaign CSV. *)

let load_stream dir =
  let err fmt = Printf.ksprintf (fun s -> Error ("stream archive: " ^ s)) fmt in
  let* manifest = Stream_sink.manifest ~dir in
  let int_field key =
    match List.assoc_opt key manifest with
    | None -> err "manifest is missing %s" key
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> err "bad manifest field %s=%S" key v)
  in
  let* start_day = int_field "start_day" in
  let* n_days = int_field "n_days" in
  let* n_domains = int_field "n_domains" in
  let* () = if n_days > 0 then Ok () else err "n_days must be positive" in
  let* names = Stream_sink.stream_names ~dir in
  let* () = if names = [] then err "no row streams in %s" dir else Ok () in
  let load_one name =
    let* blocks, trailer = Stream_sink.read_stream ~dir name in
    Result.map_error (( ^ ) "stream archive: ") (decode_stream ~n_days name blocks trailer)
    |> Result.map fst
  in
  let* series_lists = map_result load_one names in
  let series = Array.of_list (List.concat series_lists) in
  let distinct = Hashtbl.create n_domains in
  Array.iter (fun s -> Hashtbl.replace distinct s.domain ()) series;
  let* () =
    if Array.length series = n_domains && Hashtbl.length distinct = n_domains then Ok ()
    else
      err "the streams name %d domains (%d distinct), the manifest says %d (a stream is missing or extra)"
        (Array.length series) (Hashtbl.length distinct) n_domains
  in
  Array.sort (fun a b -> compare (a.rank, a.domain) (b.rank, b.domain)) series;
  Ok { start_day; n_days; series }
