(* The server-side session cache backing session-ID resumption.

   One cache instance may be shared by many servers and many domains
   (an SSL terminator); that sharing is what Section 5.1 of the paper
   measures. Entries expire after [lifetime] seconds — RFC 5246 suggests
   at most 24 hours, Apache defaults to 5 minutes, Nginx to 5 minutes
   when enabled, IIS to 10 hours — and the cache enforces a capacity
   bound with FIFO eviction like the fixed-size caches in production
   servers.

   Server session IDs are fresh and a cache has a single lifetime, so the
   FIFO order is also the expiry order: [store] drops expired heads
   before it evicts by capacity, and the cache holds only live sessions
   up to the newest store. The queue and the table always hold the same
   ids. *)

type entry = { session : Session.t; expires_at : int }

type t = {
  lifetime : int; (* seconds an entry is honored *)
  capacity : int;
  table : (string, entry) Hashtbl.t;
  order : string Queue.t; (* FIFO eviction order, oldest store first *)
}

let create ~lifetime ~capacity =
  if lifetime < 0 then invalid_arg "Session_cache.create: negative lifetime";
  if capacity <= 0 then invalid_arg "Session_cache.create: capacity must be positive";
  { lifetime; capacity; table = Hashtbl.create 64; order = Queue.create () }

let size t = Hashtbl.length t.table

let pop_head t = Hashtbl.remove t.table (Queue.pop t.order)

let rec drop_expired t ~now =
  match Queue.peek_opt t.order with
  | Some id when now > (Hashtbl.find t.table id).expires_at ->
      pop_head t;
      drop_expired t ~now
  | _ -> ()

let store t ~now session =
  let id = Session.id session in
  if String.length id = 0 then invalid_arg "Session_cache.store: empty session ID";
  if t.lifetime = 0 then () (* caching disabled: state is dropped immediately *)
  else begin
    drop_expired t ~now;
    if not (Hashtbl.mem t.table id) then begin
      if Hashtbl.length t.table >= t.capacity then pop_head t;
      Queue.push id t.order
    end;
    Hashtbl.replace t.table id { session; expires_at = now + t.lifetime }
  end

let lookup t ~now id =
  match Hashtbl.find_opt t.table id with
  | Some entry when now <= entry.expires_at -> Some entry.session
  | Some _ | None -> None

let flush t =
  Hashtbl.reset t.table;
  Queue.clear t.order

(* Compromise accessor: everything an attacker who reads the cache memory
   obtains. Used by the Attack demonstrations. *)
let dump t = Hashtbl.fold (fun _ e acc -> e.session :: acc) t.table []
