(** Burst scans: several connections per domain in (or spread over) a
    window — the Table 1 experiment ("10 connections in quick
    succession") and the service-group scans of Sections 5.2-5.3. *)

type domain_result = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  attempts : int;
  successes : int;
  conns : Observation.conn list;  (** oldest first *)
}

val result_values : field:[ `Stek | `Dhe | `Ecdhe ] -> domain_result -> string list
(** The observed identifiers of one kind, in connection order. *)

val repeats : string list -> bool * bool
(** [(some value seen >= 2x, all sightings identical)] — the Table 1
    reuse columns. Both are false for fewer than two sightings. *)

val run :
  Probe.t ->
  ?domains:Simnet.World.domain list ->
  rounds:int ->
  gap:int ->
  unit ->
  domain_result list
(** [rounds] sweeps over the target list, advancing the virtual clock by
    [gap] seconds between sweeps. *)
