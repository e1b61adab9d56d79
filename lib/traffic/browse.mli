(** The browsing model: which pages a user loads and which hostnames one
    page load touches. Page popularity is zipf-ish over the world's
    rank-ordered HTTPS domains (the sampling weight folds in how many
    real Top-Million sites a sampled domain stands for); every page
    additionally pulls 0–4 subresource hosts from the head of the
    population — the shared CDN/analytics operators whose recurrence
    across unrelated pages is exactly what makes third-party resumption
    state a tracking vector. All draws come from the Rng the caller
    passes (the per-user generator), so a user's browsing history
    depends only on their own seed. *)

type t

val create : Simnet.World.t -> t
(** Precomputes the popularity tables for one world; raises
    [Invalid_argument] if the world has no HTTPS domains. *)

val hosts : t -> (string * Row.host_info) list
(** The browsable (HTTPS) domains in rank order, with the coordinates
    the streamed trailer archives. *)

type page = {
  p_primary : string;
  p_subresources : string list;  (** deduplicated, never the primary *)
}

val page : t -> Crypto.Rng.t -> page

val pages_today : Crypto.Rng.t -> mean:float -> max_pages:int -> int
(** How many pages a user loads on one day: an exponential draw capped
    at [max_pages] — most days are light, a long tail of heavy browsing
    days. *)
