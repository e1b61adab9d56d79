(* Typed observation records produced by the scanning experiments — the
   analog of the ZGrab output rows the paper's analyses consume — plus a
   CSV round-trip so campaigns can be persisted and re-analyzed. *)

type resumption = No_resumption | By_session_id | By_ticket

let resumption_to_string = function
  | No_resumption -> "none"
  | By_session_id -> "id"
  | By_ticket -> "ticket"

let resumption_of_string = function
  | "none" -> Some No_resumption
  | "id" -> Some By_session_id
  | "ticket" -> Some By_ticket
  | _ -> None

(* One TLS connection attempt. Option fields are absent when the
   connection failed or the feature was not exercised. *)
type conn = {
  time : int; (* epoch seconds of the attempt *)
  domain : string;
  ok : bool;
  resumed : resumption;
  cipher : Tls.Types.cipher_suite option;
  session_id_set : bool; (* server put a session ID in ServerHello *)
  session_id : string; (* hex; "" if none *)
  trusted : bool; (* chain validates against the root store *)
  stek_id : string option; (* hex key name from the issued ticket *)
  ticket_hint : int option; (* advertised lifetime hint *)
  dhe_value : string option; (* hex server DHE public value *)
  ecdhe_value : string option; (* hex server ECDHE public point *)
  failure : Faults.Fault.t option; (* why the connection failed; None when ok *)
  attempts : int; (* connection attempts this observation cost (>= 1) *)
  region : string; (* scan vantage the observation was made from *)
}

let failed_conn ?(failure = Faults.Fault.Unknown) ?(attempts = 1)
    ?(region = Simnet.Region.default_name) ~time ~domain () =
  {
    time;
    domain;
    ok = false;
    resumed = No_resumption;
    cipher = None;
    session_id_set = false;
    session_id = "";
    trusted = false;
    stek_id = None;
    ticket_hint = None;
    dhe_value = None;
    ecdhe_value = None;
    failure = Some failure;
    attempts;
    region;
  }

(* --- CSV ---------------------------------------------------------------- *)

let csv_header =
  "time,domain,ok,resumed,cipher,session_id_set,session_id,trusted,stek_id,ticket_hint,dhe_value,ecdhe_value,failure,attempts,region"

let opt_str = function None -> "" | Some s -> s
let opt_int = function None -> "" | Some i -> string_of_int i

let to_csv_row c =
  String.concat ","
    [
      string_of_int c.time;
      c.domain;
      string_of_bool c.ok;
      resumption_to_string c.resumed;
      (match c.cipher with
      | None -> ""
      | Some s -> string_of_int (Tls.Types.suite_to_int s));
      string_of_bool c.session_id_set;
      c.session_id;
      string_of_bool c.trusted;
      opt_str c.stek_id;
      opt_int c.ticket_hint;
      opt_str c.dhe_value;
      opt_str c.ecdhe_value;
      (match c.failure with None -> "" | Some f -> Faults.Fault.to_string f);
      string_of_int c.attempts;
      c.region;
    ]

(* A field that is present must parse: a malformed cipher or ticket hint
   rejects the row instead of loading as "absent". *)
let optional parse s = if s = "" then Some None else Option.map Option.some (parse s)

let of_csv_row row =
  match String.split_on_char ',' row with
  | [
      time; domain; ok; resumed; cipher; id_set; session_id; trusted; stek; hint; dhe; ecdhe;
      failure; attempts; region;
    ] ->
      let ( let* ) = Option.bind in
      let* time = int_of_string_opt time in
      let* ok = bool_of_string_opt ok in
      let* resumed = resumption_of_string resumed in
      let* cipher =
        optional (fun c -> Option.bind (int_of_string_opt c) Tls.Types.suite_of_int) cipher
      in
      let* session_id_set = bool_of_string_opt id_set in
      let* trusted = bool_of_string_opt trusted in
      let* ticket_hint = optional int_of_string_opt hint in
      (* Forward compat: archives written by a newer build may name
         causes this build doesn't know; load them as [Unknown] rather
         than rejecting the whole archive. *)
      let failure =
        if failure = "" then None
        else Some (Option.value (Faults.Fault.of_string failure) ~default:Faults.Fault.Unknown)
      in
      let* attempts = int_of_string_opt attempts in
      let blank_opt s = if s = "" then None else Some s in
      Some
        {
          time;
          domain;
          ok;
          resumed;
          cipher;
          session_id_set;
          session_id;
          trusted;
          stek_id = blank_opt stek;
          ticket_hint;
          dhe_value = blank_opt dhe;
          ecdhe_value = blank_opt ecdhe;
          failure;
          attempts;
          region = (if region = "" then Simnet.Region.default_name else region);
        }
  | _ -> None

(* Atomic + checksummed like every archived artifact: a crash mid-write
   cannot leave a torn CSV, and [read_csv] detects damage at load and
   refuses a file without the frame. *)
let write_csv path conns =
  Durable.Atomic_io.with_writer path (fun w ->
      Durable.Atomic_io.add w csv_header;
      Durable.Atomic_io.add w "\n";
      List.iter
        (fun c ->
          Durable.Atomic_io.add w (to_csv_row c);
          Durable.Atomic_io.add w "\n")
        conns)

let read_csv path =
  match Durable.Atomic_io.read path with
  | Error e -> Error (Durable.Atomic_io.error_to_string ~what:"observations" e)
  | Ok content ->
      let lines =
        match List.rev (String.split_on_char '\n' content) with
        | "" :: rest -> List.rev rest
        | all -> List.rev all
      in
      let rec go acc first = function
        | [] -> Ok (List.rev acc)
        (* Campaign archives carry a `#tlsharm-campaign,...` metadata
           line (and future formats may add more); they are framing, not
           observations. *)
        | line :: rest when String.length line > 0 && line.[0] = '#' -> go acc first rest
        | line :: rest when first && String.equal line csv_header -> go acc false rest
        | line :: rest -> (
            match of_csv_row line with
            | Some c -> go (c :: acc) false rest
            | None -> Error (Printf.sprintf "bad CSV row: %s" line))
      in
      go [] true lines
