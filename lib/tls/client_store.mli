(** Client-side resumption state: the bounded session cache and ticket
    store a browser-like client carries between connections.

    Entries are keyed by an opaque {e scope} string chosen by the caller
    — the hostname for strict per-site resumption, or an operator-wide
    key when the client shares resumption state across hostnames (the
    Sy et al. cross-hostname axis). The store enforces the two client
    hygiene rules the traffic simulation measures:

    - {b lifetime}: a ticket is never offered past its advertised
      NewSessionTicket lifetime hint (optionally capped tighter by
      client policy), and a cached session ID is never offered past the
      client's session lifetime. Both are checked against the simulated
      clock at offer time; an entry is usable at exactly
      [stored_at + lifetime] and expired one second later.
    - {b bound}: at most [capacity] scopes are kept; storing into a
      full store evicts the least-recently-used scope. Memory is
      therefore O(capacity) regardless of how many sites a user visits
      over a campaign. *)

type t

val create : ?ticket_lifetime_cap:int -> capacity:int -> unit -> t
(** A session ID is offered for one day after it was stored — the
    protocol advertises no lifetime for IDs, so this is pure client
    policy. [ticket_lifetime_cap] (default 0 = honor the advertised
    hint) caps ticket reuse below the server's hint; the effective
    ticket lifetime is the minimum of the positive values among hint and
    cap. Raises [Invalid_argument] on non-positive capacity or a
    negative cap. *)

val capacity : t -> int

val size : t -> int
(** Live scopes currently held; always [<= capacity t]. *)

val evictions : t -> int
(** Scopes dropped to enforce the capacity bound since creation. *)

val expirations : t -> int
(** Entry components (tickets or cached sessions) dropped because their
    lifetime had passed at offer time. *)

val offer : t -> now:int -> scope:string -> Client.offer
(** The best resumption offer for [scope] at simulated time [now]:
    a live ticket if one is held, else a live cached session with a
    non-empty ID, else [Fresh]. Expired components are purged as a side
    effect, so the store never holds state it would refuse to offer. *)

val note :
  t ->
  now:int ->
  scope:string ->
  session:Session.t option ->
  ticket:(int * string) option ->
  unit
(** Record the outcome of a successful connection under [scope]:
    [session] is the connection's resulting session state (cached for
    session-ID resumption only when its ID is non-empty), [ticket] the
    issued NewSessionTicket as [(lifetime hint, ticket bytes)]. A [None]
    ticket leaves any previously stored (still live) ticket in place —
    RFC 5077 tickets are reusable until they expire. *)

val holds : t -> now:int -> scope:string -> bool
(** Whether {!offer} would return something other than [Fresh] for
    [scope] at [now] — without counting as a use for LRU purposes.
    Expired components are still purged. *)
