(** Typed observation records produced by the scans — the analog of the
    ZGrab output rows the paper's analyses consume — with a CSV
    round-trip for archiving. *)

type resumption = No_resumption | By_session_id | By_ticket

(** One TLS connection attempt. *)
type conn = {
  time : int;  (** epoch seconds of the attempt *)
  domain : string;
  ok : bool;
  resumed : resumption;
  cipher : Tls.Types.cipher_suite option;
  session_id_set : bool;
  session_id : string;  (** hex; [""] if none *)
  trusted : bool;
  stek_id : string option;  (** hex STEK key name from the issued ticket *)
  ticket_hint : int option;
  dhe_value : string option;  (** hex server DHE public value *)
  ecdhe_value : string option;
  failure : Faults.Fault.t option;
      (** why the connection failed; [None] when [ok] *)
  attempts : int;  (** connection attempts this observation cost (>= 1) *)
  region : string;  (** scan vantage the observation was made from *)
}

val failed_conn :
  ?failure:Faults.Fault.t ->
  ?attempts:int ->
  ?region:string ->
  time:int ->
  domain:string ->
  unit ->
  conn
(** [failure] defaults to [Unknown], [attempts] to 1, [region] to
    {!Simnet.Region.default_name}. *)

val csv_header : string

val to_csv_row : conn -> string
val of_csv_row : string -> conn option
(** [None] unless the row has exactly the {!csv_header} columns and
    every present field parses: a malformed cipher or ticket hint is a
    bad row, not an absent value. An unknown failure cause loads as
    [Unknown], and an empty region as the default vantage. *)

val write_csv : string -> conn list -> unit
val read_csv : string -> (conn list, string) result
(** [Error] on a file without the durable checksum frame, a frame that
    fails verification, or a bad row. *)
