(* The client population runner — see the interface for the sharding
   and determinism story. *)

type policy = Strict | Cross_operator

let policy_to_string = function Strict -> "strict" | Cross_operator -> "cross"

let policy_of_string = function
  | "strict" -> Ok Strict
  | "cross" -> Ok Cross_operator
  | s -> Error (Printf.sprintf "unknown resumption policy %S (strict|cross)" s)

type config = {
  users : int;
  days : int;
  shard_users : int;
  policy : policy;
  ticket_lifetime_cap : int;
  store_capacity : int;
  pages_per_day : float;
  world : Simnet.World.config;
}

let default_config =
  {
    users = 10_000;
    days = 63;
    shard_users = 16_384;
    policy = Strict;
    ticket_lifetime_cap = 0;
    store_capacity = 32;
    pages_per_day = 2.0;
    world = Simnet.World.default_config;
  }

let manifest cfg =
  [
    ("mode", "traffic");
    ("seed", cfg.world.Simnet.World.seed);
    ("n_domains", string_of_int cfg.world.Simnet.World.n_domains);
    ("users", string_of_int cfg.users);
    ("days", string_of_int cfg.days);
    ("shard_users", string_of_int cfg.shard_users);
    ("policy", policy_to_string cfg.policy);
    ("ticket_lifetime", string_of_int cfg.ticket_lifetime_cap);
    ("pages_per_day", Printf.sprintf "%g" cfg.pages_per_day);
  ]

(* Cap on one user's page loads in a day. *)
let max_pages_per_day = 12

type shard = { shard_id : int; users_lo : int; users_hi : int }

let validate cfg =
  if cfg.users < 0 then invalid_arg "Population: negative users";
  if cfg.days <= 0 then invalid_arg "Population: days must be positive";
  if cfg.shard_users <= 0 then invalid_arg "Population: shard_users must be positive";
  if cfg.store_capacity <= 0 then invalid_arg "Population: store_capacity must be positive";
  if cfg.ticket_lifetime_cap < 0 then invalid_arg "Population: negative lifetime";
  if not (Float.is_finite cfg.pages_per_day) then
    invalid_arg "Population: pages_per_day must be finite"

let shards cfg =
  validate cfg;
  let n = (cfg.users + cfg.shard_users - 1) / cfg.shard_users in
  Array.init n (fun i ->
      {
        shard_id = i;
        users_lo = i * cfg.shard_users;
        users_hi = min cfg.users ((i + 1) * cfg.shard_users);
      })

(* --- Per-user state ----------------------------------------------------------- *)

type user = {
  uid : int;
  rng : Crypto.Rng.t;
  client : Tls.Client.t;
  store : Tls.Client_store.t;
  chains : (string, int) Hashtbl.t; (* scope -> current chain ordinal *)
  mutable next_chain : int;
  mutable pages : int; (* lifetime page-load counter *)
}

(* Everything a user ever does derives from this one seed, so a user's
   browsing history and key shares are independent of sharding, worker
   count and every other user. *)
let make_user ~world_seed ~client_config cfg uid =
  let rng = Crypto.Rng.create ~seed:(Printf.sprintf "traffic:%s:user:%d" world_seed uid) in
  let client = Tls.Client.create ~config:client_config ~rng:(Crypto.Rng.fork rng ~label:"tls") () in
  let store =
    Tls.Client_store.create ~ticket_lifetime_cap:cfg.ticket_lifetime_cap
      ~capacity:cfg.store_capacity ()
  in
  { uid; rng; client; store; chains = Hashtbl.create 8; next_chain = 0; pages = 0 }

(* The chains table tracks the current linkability chain per scope; it
   only matters for scopes the store still holds (a dropped scope's next
   offer is Fresh and starts a new chain), so prune it against the store
   when it outgrows the store's own bound — keeping per-user memory
   O(store capacity) over arbitrarily long campaigns. *)
let prune_chains ~now u =
  if Hashtbl.length u.chains > 8 * Tls.Client_store.capacity u.store then
    Hashtbl.filter_map_inplace
      (fun scope chain ->
        if Tls.Client_store.holds u.store ~now ~scope then Some chain else None)
      u.chains

(* --- One shard ---------------------------------------------------------------- *)

let scope_of world policy hostname =
  match policy with
  | Strict -> hostname
  | Cross_operator -> (
      match Simnet.World.endpoint_info world hostname with
      | Some (_, op) -> "op:" ^ op
      | None -> hostname)

let connect_host ~world ~cfg ~obs ~time u ~page_host ~primary hostname =
  let scope = scope_of world cfg.policy hostname in
  let offer = Tls.Client_store.offer u.store ~now:time ~scope in
  let offered =
    match offer with
    | Tls.Client.Fresh -> Row.O_fresh
    | Tls.Client.Offer_session_id _ -> Row.O_session_id
    | Tls.Client.Offer_ticket _ -> Row.O_ticket
  in
  let chain =
    match offered with
    | Row.O_fresh ->
        u.next_chain <- u.next_chain + 1;
        Hashtbl.replace u.chains scope u.next_chain;
        u.next_chain
    | _ -> ( match Hashtbl.find_opt u.chains scope with Some c -> c | None -> 0)
  in
  Obs.Recorder.incr obs "traffic.connects";
  (Obs.Recorder.incr obs
     (match offered with
     | Row.O_fresh -> "traffic.offer.fresh"
     | Row.O_session_id -> "traffic.offer.session_id"
     | Row.O_ticket -> "traffic.offer.ticket"));
  let ok, resumed, new_ticket =
    match Simnet.World.connect world ~client:u.client ~hostname ~offer with
    | Error _ -> (false, Row.R_no, false)
    | Ok o ->
        if o.Tls.Engine.ok then
          Tls.Client_store.note u.store ~now:time ~scope ~session:o.Tls.Engine.session
            ~ticket:o.Tls.Engine.new_ticket;
        ( o.Tls.Engine.ok,
          (match o.Tls.Engine.resumed with
          | `No -> Row.R_no
          | `Via_session_id -> Row.R_session_id
          | `Via_ticket -> Row.R_ticket),
          o.Tls.Engine.new_ticket <> None )
  in
  (Obs.Recorder.incr obs
     (if not ok then "traffic.failed"
      else
        match resumed with
        | Row.R_no -> "traffic.resumed.none"
        | Row.R_session_id -> "traffic.resumed.session_id"
        | Row.R_ticket -> "traffic.resumed.ticket"));
  Obs.Recorder.gauge_max obs "traffic.store.size" (Tls.Client_store.size u.store);
  prune_chains ~now:time u;
  {
    Row.time;
    user = u.uid;
    page = u.pages;
    hostname;
    page_host;
    primary;
    ok;
    offered;
    resumed;
    new_ticket;
    chain;
  }

(* Simulate one shard into [stream]; returns the shard's connection
   count. *)
let simulate_shard cfg ~stream ~shard_obs (s : shard) =
  let world = Simnet.World.create ~config:cfg.world () in
  let clock = Simnet.World.clock world in
  let start = Simnet.Clock.now clock in
  let browse = Browse.create world in
  let client_config =
    let base =
      Tls.Config.default_client ~env:(Simnet.World.env world)
        ~root_store:(Simnet.World.root_store world)
    in
    (* Like the scanner's probes: bulk simulation skips per-connection
       chain validation and SKE verification — the traffic measurements
       never read trust verdicts. *)
    { base with Tls.Config.check_certs = false; evaluate_trust = false; verify_ske = false }
  in
  let n_users = s.users_hi - s.users_lo in
  let users =
    Array.init n_users (fun i ->
        make_user ~world_seed:cfg.world.Simnet.World.seed ~client_config cfg (s.users_lo + i))
  in
  let total = ref 0 in
  (* Scratch: first/last event time per user within the current day, for
     the traffic.user_day spans. *)
  let first_seen = Array.make (max n_users 1) (-1) in
  let last_seen = Array.make (max n_users 1) (-1) in
  for day = 0 to cfg.days - 1 do
    let day_start = start + (day * Simnet.Clock.day) in
    (* Plan the day in uid order: each user draws page count, times and
       compositions from their own Rng, so plans are user-local... *)
    let events = ref [] in
    Array.iteri
      (fun i u ->
        let n =
          Browse.pages_today u.rng ~mean:cfg.pages_per_day ~max_pages:max_pages_per_day
        in
        for k = 0 to n - 1 do
          let time = day_start + Crypto.Rng.int_below u.rng Simnet.Clock.day in
          let page = Browse.page browse u.rng in
          events := (time, i, k, page) :: !events
        done)
      users;
    (* ...then the shard executes them in global time order — the shared
       server state (session caches, STEK rotations) sees one
       deterministic interleaving. *)
    let events =
      List.sort
        (fun (t1, i1, k1, _) (t2, i2, k2, _) ->
          compare (t1, i1, k1) (t2, i2, k2))
        !events
    in
    Array.fill first_seen 0 (Array.length first_seen) (-1);
    Array.fill last_seen 0 (Array.length last_seen) (-1);
    let day_rows = ref [] in
    List.iter
      (fun (time, i, _k, page) ->
        let u = users.(i) in
        Simnet.Clock.set clock time;
        if first_seen.(i) < 0 then first_seen.(i) <- time;
        last_seen.(i) <- time;
        u.pages <- u.pages + 1;
        Obs.Recorder.incr shard_obs "traffic.pages";
        let primary_host = page.Browse.p_primary in
        let emit row = day_rows := row :: !day_rows in
        emit
          (connect_host ~world ~cfg ~obs:shard_obs ~time u ~page_host:primary_host
             ~primary:true primary_host);
        List.iter
          (fun sub ->
            emit
              (connect_host ~world ~cfg ~obs:shard_obs ~time u ~page_host:primary_host
                 ~primary:false sub))
          page.Browse.p_subresources)
      events;
    (* One aggregated span per active user-day: browsing window on the
       simulated clock. Recorded directly (the spans of one user's day
       interleave with other users', so no closure wraps them). *)
    Array.iteri
      (fun i first ->
        if first >= 0 then begin
          Obs.Recorder.record_span shard_obs ~name:"traffic.user_day" ~sim_start:first
            ~sim_end:last_seen.(i) ();
          Obs.Recorder.incr shard_obs "traffic.user_days"
        end)
      first_seen;
    let rows = List.rev !day_rows in
    total := !total + List.length rows;
    Traffic_sink.append_day stream ~day rows
  done;
  Simnet.Clock.set clock (start + (cfg.days * Simnet.Clock.day));
  Traffic_sink.finish stream ~users_lo:s.users_lo ~users_hi:s.users_hi
    ~hosts:(Browse.hosts browse);
  !total

(* --- The parallel runner ------------------------------------------------------ *)

type result = { n_shards : int; total_rows : int }

let run ?jobs ~sink ?(obs = Obs.Recorder.null) cfg =
  validate cfg;
  let shard_arr = shards cfg in
  let n_shards = Array.length shard_arr in
  let counts = Array.make n_shards 0 in
  let recorders = Array.make n_shards Obs.Recorder.null in
  let run_shard (s : shard) =
    match Traffic_sink.stream sink s.shard_id ~days:cfg.days with
    | Scanner.Stream_sink.Kept _ ->
        (* Spooled whole by a previous (interrupted) run, and it decodes:
           its bytes stay as they are, and its rows are read back from
           the sink. *)
        ()
    | Scanner.Stream_sink.Rerun stream ->
        let shard_obs = Obs.Recorder.fork obs in
        (* The shard span covers the whole shard — world construction
           included, since the scheduler pays for it too. Simulated time
           is read off a clock that exists only once the world does. *)
        let sim_now = ref Simnet.World.start_time in
        counts.(s.shard_id) <-
          Obs.Recorder.span shard_obs ~name:"traffic.shard"
            ~attrs:[ ("shard", string_of_int s.shard_id) ]
            ~now:(fun () -> !sim_now)
            (fun () ->
              let n = simulate_shard cfg ~stream ~shard_obs s in
              sim_now := Simnet.World.start_time + (cfg.days * Simnet.Clock.day);
              n);
        recorders.(s.shard_id) <- shard_obs
  in
  Scanner.Pool.run ?jobs n_shards (fun i -> run_shard shard_arr.(i));
  (* Merge in shard order: counters sum and gauges max commutatively, but
     a fixed order keeps intermediate states reproducible too. *)
  Obs.Recorder.gauge_max obs "traffic.days" cfg.days;
  Obs.Recorder.gauge_max obs "traffic.users" cfg.users;
  Array.iter (Obs.Recorder.merge obs) recorders;
  { n_shards; total_rows = Array.fold_left ( + ) 0 counts }
