(** Cross-regional scanning: the same domain-days probed from several
    vantage points (one world per region, per-vantage Rng streams),
    after Alashwali et al.'s HTTPS-inconsistency measurements. Each
    region runs the campaign's own daily sweep loop
    ({!Daily_scan.sweep}), so the vantages follow the paper's sweep
    schedule. Region scans are independent, so results are
    byte-identical at any job count. *)

type config = {
  base : Simnet.World.config;
      (** base world config; its [region] field is overridden per
          vantage *)
  regions : Simnet.Region.t list;
  days : int;
}

type t

val run : ?jobs:int -> config -> t
(** Raises [Invalid_argument] on an unknown region, an empty region
    list, or [days < 1]. Whole regions are scanned on a {!Pool} of
    [jobs] workers (default [Domain.recommended_domain_count ()]); the
    result is identical at any value. *)

val rows : t -> Observation.conn list
(** Region-major (configured order), then day, then sweep (default
    sweep before DHE-only sweep), then rank order — a deterministic
    total order. *)

val regions : t -> Simnet.Region.t list

val save : t -> string -> unit
(** Archive as an observation CSV (atomic + checksummed). *)

val load : string -> (Observation.conn list, string) result
(** Load an archived cross-vantage CSV. Rows must carry every
    {!Observation.csv_header} column; a row without the region column is
    an [Error]. *)
