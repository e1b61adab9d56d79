(** The worker pool shared by {!Parallel_campaign}, {!Cross_vantage} and
    the traffic population runner: a claim queue over item indices
    drained by the calling domain plus [jobs - 1] helper domains. *)

val run : ?jobs:int -> int -> (int -> unit) -> unit
(** [run ?jobs n f] calls [f i] exactly once for every [i] in
    [0 .. n-1], claiming indices in increasing order. [jobs] (default
    [Domain.recommended_domain_count ()]) is clamped to [\[1, n\]];
    [jobs = 1] runs every item on the calling domain. [f] runs
    concurrently on several domains and must write its result only into
    state owned by item [i]; those writes are visible to the caller when
    [run] returns. If any [f i] raises, no further items are started,
    all helpers are joined, and the first exception (the caller's own,
    else the earliest-spawned helper's) is re-raised with its
    backtrace. *)
