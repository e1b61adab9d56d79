(* Latency-saved vs tracking-window analysis over traffic rows — see the
   interface for the definitions. The fold holds per-chain and per-class
   aggregates only, so memory scales with the number of chains (user ×
   visited-scope pairs), never with the row count. *)

type meta = { policy : string; ticket_lifetime : int; users : int; days : int }

type class_row = {
  cls : string;
  conns : int;
  weight : float;
  ok_rate : float;
  resume_rate : float;
  saved_mean_ms : float;
  saved_total_ws : float;
  saved_p50_ms : float;
  saved_p90_ms : float;
  chains : int;
  linkable : int;
  window_p50_s : float;
  window_p90_s : float;
  window_max_s : float;
  hops_mean : float;
  tp_chains : int;
  tp_primaries_mean : float;
  tp_primaries_max : int;
}

type t = { meta : meta; rows : class_row list }

(* --- Accumulation ------------------------------------------------------------- *)

type chain_rec = {
  c_op : string;
  c_weight : float; (* HT weight of the chain's first-seen hostname *)
  mutable c_first : int;
  mutable c_last : int;
  mutable c_hops : int;
  mutable c_tp : bool; (* some connection was a subresource fetch *)
  mutable c_pages : string list; (* distinct first-party contexts *)
}

type cls_acc = {
  mutable a_conns : int;
  mutable a_weight : float;
  mutable a_ok_w : float;
  mutable a_resumed_w : float;
  mutable a_saved_w : float; (* sum of weight * saved_ms *)
  mutable a_saved : Stats.weighted list; (* saved_ms over resumed conns *)
}

type acc = {
  acc_meta : meta;
  hosts : (string, Traffic.Row.host_info) Hashtbl.t;
  classes : (string, cls_acc) Hashtbl.t;
  chains : (int * int, chain_rec) Hashtbl.t; (* keyed by (user, chain) *)
}

let create ~meta ~hosts =
  let tbl = Hashtbl.create (List.length hosts * 2) in
  List.iter (fun (name, info) -> Hashtbl.replace tbl name info) hosts;
  { acc_meta = meta; hosts = tbl; classes = Hashtbl.create 64; chains = Hashtbl.create 4096 }

let cls_for acc op =
  match Hashtbl.find_opt acc.classes op with
  | Some c -> c
  | None ->
      let c =
        { a_conns = 0; a_weight = 0.0; a_ok_w = 0.0; a_resumed_w = 0.0; a_saved_w = 0.0; a_saved = [] }
      in
      Hashtbl.add acc.classes op c;
      c

let add acc (r : Traffic.Row.t) =
  let op, w =
    match Hashtbl.find_opt acc.hosts r.hostname with
    | Some i -> (i.Traffic.Row.h_operator, i.Traffic.Row.h_weight)
    | None -> ("?", 1.0)
  in
  let c = cls_for acc op in
  c.a_conns <- c.a_conns + 1;
  c.a_weight <- c.a_weight +. w;
  if r.ok then c.a_ok_w <- c.a_ok_w +. w;
  let resumed = r.ok && r.resumed <> Traffic.Row.R_no in
  if resumed then begin
    let saved = float_of_int (Traffic.Latency.saved_ms r.hostname) in
    c.a_resumed_w <- c.a_resumed_w +. w;
    c.a_saved_w <- c.a_saved_w +. (w *. saved);
    c.a_saved <- { Stats.value = saved; weight = w } :: c.a_saved
  end;
  if r.chain > 0 then begin
    let key = (r.user, r.chain) in
    let ch =
      match Hashtbl.find_opt acc.chains key with
      | Some ch -> ch
      | None ->
          let ch =
            {
              c_op = op;
              c_weight = w;
              c_first = r.time;
              c_last = r.time;
              c_hops = 0;
              c_tp = false;
              c_pages = [];
            }
          in
          Hashtbl.add acc.chains key ch;
          ch
    in
    if r.time < ch.c_first then ch.c_first <- r.time;
    if r.time > ch.c_last then ch.c_last <- r.time;
    ch.c_hops <- ch.c_hops + 1;
    if not r.primary then ch.c_tp <- true;
    if not (List.mem r.page_host ch.c_pages) then ch.c_pages <- r.page_host :: ch.c_pages
  end

(* --- Finalization ------------------------------------------------------------- *)

let merge_cls into from =
  into.a_conns <- into.a_conns + from.a_conns;
  into.a_weight <- into.a_weight +. from.a_weight;
  into.a_ok_w <- into.a_ok_w +. from.a_ok_w;
  into.a_resumed_w <- into.a_resumed_w +. from.a_resumed_w;
  into.a_saved_w <- into.a_saved_w +. from.a_saved_w;
  into.a_saved <- List.rev_append from.a_saved into.a_saved

let fresh_cls () =
  { a_conns = 0; a_weight = 0.0; a_ok_w = 0.0; a_resumed_w = 0.0; a_saved_w = 0.0; a_saved = [] }

let finalize acc =
  let total_w = Hashtbl.fold (fun _ c t -> t +. c.a_weight) acc.classes 0.0 in
  (* Operators above 1% of weighted connections get their own row. *)
  let named =
    Hashtbl.fold
      (fun op c l -> if c.a_weight >= 0.01 *. total_w then (op, c.a_weight) :: l else l)
      acc.classes []
    |> List.sort (fun (oa, wa) (ob, wb) -> if wa <> wb then compare wb wa else compare oa ob)
    |> List.map fst
  in
  let display op = if List.mem op named then op else "(other)" in
  let merged : (string, cls_acc) Hashtbl.t = Hashtbl.create 32 in
  let merged_for d =
    match Hashtbl.find_opt merged d with
    | Some c -> c
    | None ->
        let c = fresh_cls () in
        Hashtbl.add merged d c;
        c
  in
  Hashtbl.iter
    (fun op c ->
      merge_cls (merged_for (display op)) c;
      merge_cls (merged_for "(all)") c)
    acc.classes;
  let chains_by : (string, chain_rec list ref) Hashtbl.t = Hashtbl.create 32 in
  let chains_for d =
    match Hashtbl.find_opt chains_by d with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add chains_by d l;
        l
  in
  Hashtbl.iter
    (fun _ ch ->
      chains_for (display ch.c_op) := ch :: !(chains_for (display ch.c_op));
      chains_for "(all)" := ch :: !(chains_for "(all)"))
    acc.chains;
  let row_of d (c : cls_acc) =
    let chains = match Hashtbl.find_opt chains_by d with Some l -> !l | None -> [] in
    let linkable = List.filter (fun ch -> ch.c_hops >= 2) chains in
    let windows =
      List.map
        (fun ch -> { Stats.value = float_of_int (ch.c_last - ch.c_first); weight = ch.c_weight })
        linkable
    in
    let saved_qs = Stats.quantiles c.a_saved [ 0.5; 0.9 ] in
    let window_qs = Stats.quantiles windows [ 0.5; 0.9 ] in
    let tp = List.filter (fun ch -> ch.c_tp) linkable in
    let tp_pages = List.map (fun ch -> List.length ch.c_pages) tp in
    let safe_div a b = if b > 0.0 then a /. b else 0.0 in
    {
      cls = d;
      conns = c.a_conns;
      weight = c.a_weight;
      ok_rate = safe_div c.a_ok_w c.a_weight;
      resume_rate = safe_div c.a_resumed_w c.a_weight;
      saved_mean_ms = safe_div c.a_saved_w c.a_weight;
      saved_total_ws = c.a_saved_w /. 1000.0;
      saved_p50_ms = List.nth saved_qs 0;
      saved_p90_ms = List.nth saved_qs 1;
      chains = List.length chains;
      linkable = List.length linkable;
      window_p50_s = List.nth window_qs 0;
      window_p90_s = List.nth window_qs 1;
      window_max_s =
        List.fold_left (fun m w -> max m w.Stats.value) 0.0 windows;
      hops_mean =
        safe_div
          (float_of_int (List.fold_left (fun a ch -> a + ch.c_hops) 0 linkable))
          (float_of_int (List.length linkable));
      tp_chains = List.length tp;
      tp_primaries_mean =
        safe_div
          (float_of_int (List.fold_left ( + ) 0 tp_pages))
          (float_of_int (List.length tp));
      tp_primaries_max = List.fold_left max 0 tp_pages;
    }
  in
  let order =
    named @ (if Hashtbl.mem merged "(other)" then [ "(other)" ] else []) @ [ "(all)" ]
  in
  {
    meta = acc.acc_meta;
    rows = List.filter_map (fun d -> Option.map (row_of d) (Hashtbl.find_opt merged d)) order;
  }

let of_sink ~dir =
  let ( let* ) = Result.bind in
  let* manifest = Scanner.Stream_sink.manifest ~dir in
  (* The report prints these keys; a manifest without one is refused
     rather than rendered with a made-up value. *)
  let get key =
    match List.assoc_opt key manifest with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: the manifest has no %s" dir key)
  in
  let int_of key =
    let* v = get key in
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s: manifest %s=%S is not an integer" dir key v)
  in
  let* policy = get "policy" in
  let* ticket_lifetime = int_of "ticket_lifetime" in
  let* users = int_of "users" in
  let* days = int_of "days" in
  let meta = { policy; ticket_lifetime; users; days } in
  let* ids = Traffic.Traffic_sink.shard_ids ~dir in
  (* The shards' user ranges must tile [0, users) in shard order, so a
     log missing a stream is refused rather than read as a smaller
     population. *)
  let untiled fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "%s: %s (a stream is missing)" dir s)) fmt
  in
  let* acc, covered =
    List.fold_left
      (fun st shard ->
        let* acc, covered = st in
        let* rows, (lo, hi, hosts) = Traffic.Traffic_sink.read_shard ~dir ~shard in
        if lo <> covered then untiled "shard %d starts at user %d, not %d" shard lo covered
        else
          let acc = match acc with Some acc -> acc | None -> create ~meta ~hosts in
          List.iter (add acc) rows;
          Ok (Some acc, hi))
      (Ok (None, 0)) ids
  in
  match acc with
  | None -> Error (Printf.sprintf "%s holds no traffic streams" dir)
  | Some _ when covered <> meta.users ->
      untiled "the shards end at user %d, the manifest says %d users" covered meta.users
  | Some acc -> Ok (finalize acc)

(* --- Rendering ---------------------------------------------------------------- *)

let render t =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "Tracking exposure vs handshake latency (policy=%s, ticket-lifetime=%s, %d users, %d days)\n"
    t.meta.policy
    (if t.meta.ticket_lifetime = 0 then "advertised"
     else string_of_int t.meta.ticket_lifetime ^ "s")
    t.meta.users t.meta.days;
  Printf.bprintf b
    "%-14s %9s %7s %8s %9s %9s %8s %9s %9s %10s %10s %6s %8s %8s\n"
    "operator" "conns" "resume" "saved/c" "savedp50" "savedp90" "chains" "linkable"
    "windw p50" "windw p90" "windw max" "hops" "3p-chain" "3p-pages";
  let dur s = if Float.is_nan s then "-" else Stats.duration_to_string s in
  let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.0fms" v in
  List.iter
    (fun r ->
      Printf.bprintf b
        "%-14s %9d %6.1f%% %7.1fms %9s %9s %8d %9d %10s %10s %10s %6.1f %8d %5.1f/%d\n"
        r.cls r.conns (100.0 *. r.resume_rate) r.saved_mean_ms (ms r.saved_p50_ms)
        (ms r.saved_p90_ms) r.chains r.linkable (dur r.window_p50_s) (dur r.window_p90_s)
        (dur r.window_max_s) r.hops_mean r.tp_chains r.tp_primaries_mean r.tp_primaries_max)
    t.rows;
  Buffer.contents b
