(* Structured trace spans over the scanner's hot paths, aggregated.

   A raw-span log for a production-scale campaign (millions of probes)
   would dwarf the observation archive it describes, so spans aggregate
   on ingestion: the key is (span name, sorted attributes) and the value
   is {count, total/min/max simulated duration, accumulated host-clock
   nanoseconds}. Aggregates merge by addition (count, totals) and
   min/max — commutative and associative, so shard traces merge
   order-independently like the metrics registry.

   Two clocks:

   - the *simulated* clock (integer seconds, passed in by the caller) is
     deterministic and always recorded; span durations on it reflect the
     campaign schedule (a scan day spans 90 virtual minutes between its
     two sweeps, a probe spans 0 — the virtual clock does not advance
     inside a handshake);
   - the *host* clock ([Unix.gettimeofday], best-effort monotonic) is
     opt-in per collector ([wall = true]) because it is inherently
     nondeterministic; with it off (the default) the rendered trace is
     byte-identical across runs and worker counts of the same campaign
     mode, and the wall_ns field is omitted entirely. *)

type agg = {
  mutable count : int;
  mutable sim_total : int;
  mutable sim_min : int;
  mutable sim_max : int;
  mutable wall_ns : float; (* meaningful only when the collector timed walls *)
}

type key = string * (string * string) list

type t = {
  tbl : (key, agg) Hashtbl.t;
  wall : bool; (* record host-clock durations (nondeterministic) *)
}

let create ?(wall = false) () = { tbl = Hashtbl.create 64; wall }
let wall_enabled t = t.wall

let canonical_attrs attrs = List.sort compare attrs

let record t ~name ?(attrs = []) ~sim_start ~sim_end ?(wall_ns = 0.0) () =
  if sim_end < sim_start then invalid_arg "Obs.Trace.record: span ends before it starts";
  let d = sim_end - sim_start in
  let key = (name, canonical_attrs attrs) in
  match Hashtbl.find_opt t.tbl key with
  | Some a ->
      a.count <- a.count + 1;
      a.sim_total <- a.sim_total + d;
      if d < a.sim_min then a.sim_min <- d;
      if d > a.sim_max then a.sim_max <- d;
      if t.wall then a.wall_ns <- a.wall_ns +. wall_ns
  | None ->
      Hashtbl.replace t.tbl key
        {
          count = 1;
          sim_total = d;
          sim_min = d;
          sim_max = d;
          wall_ns = (if t.wall then wall_ns else 0.0);
        }

(* Time [f] as one span: simulated duration from the [now] closure read
   before and after, host duration only when this collector opted in. *)
let timed t ~name ?attrs ~now f =
  let sim_start = now () in
  let w0 = if t.wall then Unix.gettimeofday () else 0.0 in
  let finally () =
    let wall_ns = if t.wall then (Unix.gettimeofday () -. w0) *. 1e9 else 0.0 in
    record t ~name ?attrs ~sim_start ~sim_end:(now ()) ~wall_ns ()
  in
  match f () with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let merge dst src =
  Hashtbl.iter
    (fun key (s : agg) ->
      match Hashtbl.find_opt dst.tbl key with
      | Some d ->
          d.count <- d.count + s.count;
          d.sim_total <- d.sim_total + s.sim_total;
          if s.sim_min < d.sim_min then d.sim_min <- s.sim_min;
          if s.sim_max > d.sim_max then d.sim_max <- s.sim_max;
          d.wall_ns <- d.wall_ns +. s.wall_ns
      | None ->
          Hashtbl.replace dst.tbl key
            {
              count = s.count;
              sim_total = s.sim_total;
              sim_min = s.sim_min;
              sim_max = s.sim_max;
              wall_ns = s.wall_ns;
            })
    src.tbl

let schema = "tlsharm-obs-trace/1"

let sorted_keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

let to_json t =
  let spans =
    List.map
      (fun ((name, attrs) as key) ->
        let a = Hashtbl.find t.tbl key in
        Json.Obj
          ([
             ("name", Json.Str name);
             ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs));
             ("count", Json.int a.count);
             ("sim_total_s", Json.int a.sim_total);
             ("sim_min_s", Json.int a.sim_min);
             ("sim_max_s", Json.int a.sim_max);
           ]
          @ if t.wall then [ ("wall_ns", Json.Num a.wall_ns) ] else []))
      (sorted_keys t)
  in
  Json.Obj [ ("schema", Json.Str schema); ("spans", Json.List spans) ]

let to_json_string t = Json.to_string (to_json t)
let equal a b = String.equal (to_json_string a) (to_json_string b)
