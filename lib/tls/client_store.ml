(* Bounded client-side resumption store. See the interface for the two
   invariants (lifetime-checked offers, LRU capacity bound). Recency is
   a monotonic touch counter rather than wall time: two operations in
   the same simulated second must still order deterministically. *)

type entry = {
  mutable e_session : (Session.t * int) option; (* state, stored_at *)
  mutable e_ticket : (string * Session.t * int * int) option;
      (* ticket bytes, session state, lifetime hint, issued_at *)
  mutable e_touched : int;
}

(* Session-ID reuse bound, seconds: one day. *)
let session_lifetime = 86_400

type t = {
  ticket_lifetime_cap : int;
  cap : int;
  entries : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable evicted : int;
  mutable expired : int;
}

let create ?(ticket_lifetime_cap = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Client_store.create: non-positive capacity";
  if ticket_lifetime_cap < 0 then invalid_arg "Client_store.create: negative lifetime";
  {
    ticket_lifetime_cap;
    cap = capacity;
    entries = Hashtbl.create (min capacity 64);
    tick = 0;
    evicted = 0;
    expired = 0;
  }

let capacity t = t.cap
let size t = Hashtbl.length t.entries
let evictions t = t.evicted
let expirations t = t.expired

let touch t e =
  t.tick <- t.tick + 1;
  e.e_touched <- t.tick

(* Effective ticket lifetime: the advertised hint, tightened by the
   client-policy cap when set. A hint of 0 means "unspecified" (RFC
   5077), in which case only the cap bounds reuse; with neither, the
   ticket never self-expires and only eviction retires it. *)
let ticket_deadline t ~hint ~issued_at =
  match (hint > 0, t.ticket_lifetime_cap > 0) with
  | true, true -> Some (issued_at + min hint t.ticket_lifetime_cap)
  | true, false -> Some (issued_at + hint)
  | false, true -> Some (issued_at + t.ticket_lifetime_cap)
  | false, false -> None

(* Drop expired components. An entry is live at its deadline and dead
   one second past it: "never offer past the advertised lifetime" makes
   the boundary second the last legal offer. *)
let purge t ~now e =
  (match e.e_ticket with
  | Some (_, _, hint, issued_at) -> (
      match ticket_deadline t ~hint ~issued_at with
      | Some deadline when now > deadline ->
          e.e_ticket <- None;
          t.expired <- t.expired + 1
      | _ -> ())
  | None -> ());
  match e.e_session with
  | Some (_, stored_at) when now > stored_at + session_lifetime ->
      e.e_session <- None;
      t.expired <- t.expired + 1
  | _ -> ()

let offer t ~now ~scope =
  match Hashtbl.find_opt t.entries scope with
  | None -> Client.Fresh
  | Some e -> (
      purge t ~now e;
      if e.e_session = None && e.e_ticket = None then begin
        Hashtbl.remove t.entries scope;
        Client.Fresh
      end
      else begin
        touch t e;
        match e.e_ticket with
        | Some (ticket, session, _, _) -> Client.Offer_ticket { ticket; session }
        | None -> (
            match e.e_session with
            | Some (s, _) when Session.id s <> "" -> Client.Offer_session_id s
            | _ -> Client.Fresh)
      end)

let holds t ~now ~scope =
  match Hashtbl.find_opt t.entries scope with
  | None -> false
  | Some e ->
      purge t ~now e;
      if e.e_session = None && e.e_ticket = None then begin
        Hashtbl.remove t.entries scope;
        false
      end
      else
        e.e_ticket <> None
        || (match e.e_session with Some (s, _) -> Session.id s <> "" | None -> false)

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun scope e ->
      match !victim with
      | Some (_, best) when best.e_touched <= e.e_touched -> ()
      | _ -> victim := Some (scope, e))
    t.entries;
  match !victim with
  | Some (scope, _) ->
      Hashtbl.remove t.entries scope;
      t.evicted <- t.evicted + 1
  | None -> ()

let note t ~now ~scope ~session ~ticket =
  let fresh_session =
    match session with Some s when Session.id s <> "" -> Some (s, now) | _ -> None
  in
  let fresh_ticket =
    match (ticket, session) with
    | Some (hint, bytes), Some s -> Some (bytes, s, hint, now)
    | _ -> None
  in
  if fresh_session <> None || fresh_ticket <> None then begin
    let e =
      match Hashtbl.find_opt t.entries scope with
      | Some e -> e
      | None ->
          if Hashtbl.length t.entries >= t.cap then evict_lru t;
          let e = { e_session = None; e_ticket = None; e_touched = 0 } in
          Hashtbl.add t.entries scope e;
          e
    in
    (match fresh_session with Some _ as s -> e.e_session <- s | None -> ());
    (match fresh_ticket with Some _ as tk -> e.e_ticket <- tk | None -> ());
    purge t ~now e;
    touch t e
  end
