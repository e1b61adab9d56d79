(* The server-side session cache backing session-ID resumption.

   One cache instance may be shared by many servers and many domains
   (an SSL terminator); that sharing is what Section 5.1 of the paper
   measures. Entries expire after [lifetime] seconds — RFC 5246 suggests
   at most 24 hours, Apache defaults to 5 minutes, Nginx to 5 minutes
   when enabled, IIS to 10 hours — and the cache enforces a capacity
   bound with FIFO eviction like the fixed-size caches in production
   servers.

   The FIFO queue can hold "ghosts": ids whose entry was removed from the
   table by lazy expiry or [remove] (deleting from the middle of a queue
   is not O(1)). Ghost heads are purged during eviction, and a ghost
   counter triggers a full compaction before ghosts outnumber the
   capacity, so the queue length stays <= 2 x capacity over arbitrarily
   long campaigns instead of growing with every store ever made. *)

type entry = { session : Session.t; expires_at : int }

type t = {
  lifetime : int; (* seconds an entry is honored *)
  capacity : int;
  table : (string, entry) Hashtbl.t;
  order : string Queue.t; (* FIFO eviction order; may contain ghosts *)
  mutable ghosts : int; (* queue ids no longer present in the table *)
}

let create ~lifetime ~capacity =
  if lifetime < 0 then invalid_arg "Session_cache.create: negative lifetime";
  if capacity <= 0 then invalid_arg "Session_cache.create: capacity must be positive";
  { lifetime; capacity; table = Hashtbl.create 64; order = Queue.create (); ghosts = 0 }

let lifetime t = t.lifetime
let size t = Hashtbl.length t.table
let queue_length t = Queue.length t.order

(* Rebuild the queue without ghosts, preserving FIFO order. Amortized
   O(1): it runs only after [capacity] removals have accumulated. *)
let compact t =
  let live = Queue.create () in
  Queue.iter (fun id -> if Hashtbl.mem t.table id then Queue.push id live) t.order;
  Queue.clear t.order;
  Queue.transfer live t.order;
  t.ghosts <- 0

let note_ghost t =
  t.ghosts <- t.ghosts + 1;
  if t.ghosts > t.capacity then compact t

(* Drop ghost heads so eviction only ever removes live entries. *)
let rec purge_stale_head t =
  match Queue.peek_opt t.order with
  | Some id when not (Hashtbl.mem t.table id) ->
      ignore (Queue.pop t.order);
      t.ghosts <- max 0 (t.ghosts - 1);
      purge_stale_head t
  | _ -> ()

let evict_if_full t =
  purge_stale_head t;
  while Hashtbl.length t.table >= t.capacity && not (Queue.is_empty t.order) do
    let victim = Queue.pop t.order in
    Hashtbl.remove t.table victim;
    purge_stale_head t
  done

let store t ~now session =
  let id = Session.id session in
  if String.length id = 0 then invalid_arg "Session_cache.store: empty session ID";
  if t.lifetime = 0 then () (* caching disabled: state is dropped immediately *)
  else begin
    if not (Hashtbl.mem t.table id) then begin
      evict_if_full t;
      Queue.push id t.order
    end;
    Hashtbl.replace t.table id { session; expires_at = now + t.lifetime }
  end

let lookup t ~now id =
  match Hashtbl.find_opt t.table id with
  | None -> None
  | Some entry ->
      if now <= entry.expires_at then Some entry.session
      else begin
        (* Lazy expiry: the implementations the paper inspects also drop
           entries on access rather than with a timer. *)
        Hashtbl.remove t.table id;
        note_ghost t;
        None
      end

let remove t id =
  if Hashtbl.mem t.table id then begin
    Hashtbl.remove t.table id;
    note_ghost t
  end

let flush t =
  Hashtbl.reset t.table;
  Queue.clear t.order;
  t.ghosts <- 0

(* Compromise accessor: everything an attacker who reads the cache memory
   obtains. Used by the Attack demonstrations. *)
let dump t = Hashtbl.fold (fun _ e acc -> e.session :: acc) t.table []
