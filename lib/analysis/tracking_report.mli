(** The latency-vs-tracking tradeoff table: what resumption buys each
    operator's visitors in handshake latency against the linkability
    window it hands that operator (and, via subresources, third-party
    observers) — the Sy et al. axis the traffic subsystem simulates.

    Definitions, per traffic {!Traffic.Row}s:

    - {b latency saved}: one RTT ({!Traffic.Latency.saved_ms}) for every
      abbreviated handshake, 0 for full ones; Horvitz-Thompson weighted
      by the connected domain's sampling weight, so means estimate the
      real Top-Million population.
    - {b linkability chain}: the maximal run of a user's connections
      tied together by resumption state — every connection that offers a
      ticket or session ID (accepted or not: the bytes identify the
      client on the wire either way) extends the chain its state came
      from; a fresh offer starts a new one. Chains are delimited by the
      row's [chain] ordinal, assigned at simulation time.
    - {b tracking window}: last minus first connection time of a chain
      with at least two connections — how long the observer can follow
      one client identity.
    - {b third-party exposure}: for chains seen by a subresource host,
      the number of distinct first-party pages ([page_host]) linked
      within one chain — cross-site browsing history leaked to that
      third party. *)

type meta = {
  policy : string;
  ticket_lifetime : int;  (** client-side cap, seconds; 0 = advertised *)
  users : int;
  days : int;
}

type class_row = {
  cls : string;  (** operator, or the aggregate rows ["(other)"]/["(all)"] *)
  conns : int;
  weight : float;  (** summed HT weight over connections *)
  ok_rate : float;
  resume_rate : float;  (** weighted share of abbreviated handshakes *)
  saved_mean_ms : float;  (** weighted mean saved per connection *)
  saved_total_ws : float;  (** total weighted saved, in weighted seconds *)
  saved_p50_ms : float;  (** over resumed connections *)
  saved_p90_ms : float;
  chains : int;
  linkable : int;  (** chains of >= 2 connections *)
  window_p50_s : float;  (** over linkable chains, weighted *)
  window_p90_s : float;
  window_max_s : float;
  hops_mean : float;  (** connections per linkable chain *)
  tp_chains : int;  (** linkable chains observed by a third party *)
  tp_primaries_mean : float;  (** distinct first-party pages per such chain *)
  tp_primaries_max : int;
}

type t = { meta : meta; rows : class_row list }
(** [rows]: operators above 1% of weighted connections, descending, then
    ["(other)"], then ["(all)"]. *)

val of_sink : dir:string -> (t, string) result
(** Fold a traffic run log one shard at a time, holding only per-chain
    and per-class aggregates (rows arrive shard by shard; any order
    within a user is fine — chains are keyed, not positional). Run
    metadata comes from the sink manifest; one without [policy],
    [ticket_lifetime], [users] or [days] as the report needs them is an
    [Error] naming the key. The shards' user ranges must
    tile [\[0, users)] in shard order: a log missing a stream is an
    [Error], not a smaller population. *)

val render : t -> string
(** The human-readable table the [traffic] CLI prints. *)
