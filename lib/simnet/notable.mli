(** Case-study domains seeded to the behaviour the paper observed, so
    the "top domains with prolonged reuse" tables (Tables 2-4) reproduce
    nominally, not just statistically. Spans are in days over the 63-day
    study. *)

type t = {
  name : string;
  rank : int;  (** average Alexa rank over the study *)
  stek : [ `Span of int | `Daily | `No_tickets ];
  dhe_span : int option;  (** [Reuse_forever] until a restart at this day *)
  ecdhe_span : int option;
  supports_dhe : bool;
  hint_override : int option;  (** advertised ticket lifetime hint, seconds *)
  shared_stek : string option;  (** domains with the same label share a STEK *)
}

val kex_restart_day : t -> int option
(** The domain's process-restart day: the larger of its kex spans. *)

val all : t list
