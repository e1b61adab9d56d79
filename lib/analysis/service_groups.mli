(** Service groups: sets of domains sharing TLS secret state (Section 5),
    built per mechanism — session caches from cross-probe edges (Table 5),
    STEKs from shared key names (Table 6), Diffie-Hellman values from
    shared server values (Table 7). Sizes are reported sampled and
    weighted (estimating real Top Million counts). *)

type group = {
  members : string list;
  sampled_size : int;
  weighted_size : float;
  label : string;  (** dominant operator *)
}

val stek_groups : world:Simnet.World.t -> Scanner.Burst_scan.domain_result list -> group list
val dh_groups : world:Simnet.World.t -> Scanner.Burst_scan.domain_result list -> group list
val session_cache_groups : world:Simnet.World.t -> Scanner.Cross_probe.result -> group list

val top_coverage : ?k:int -> group list -> population_weight:float -> float
(** Weighted share of a population covered by the [k] largest groups
    (Section 6's concentration-of-secrets measure). *)

type summary = {
  n_groups : int;
  n_singletons : int;
  largest : group option;
  multi_domain_weight : float;
}

val summarize : group list -> summary
