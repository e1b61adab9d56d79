(* Structured trace spans over the scanner's hot paths, aggregated.

   A raw-span log for a production-scale campaign (millions of probes)
   would dwarf the observation archive it describes, so spans aggregate
   on ingestion: the key is (span name, sorted attributes) and the value
   is {count, total/min/max simulated duration}. Aggregates merge by
   addition (count, totals) and min/max — commutative and associative,
   so shard traces merge order-independently like the metrics registry.

   Durations are read off the *simulated* clock (integer seconds, passed
   in by the caller), so the rendered trace is byte-identical across
   runs and worker counts of the same campaign mode. They reflect the
   campaign schedule: a scan day spans 90 virtual minutes between its
   two sweeps, a probe spans 0 (the virtual clock does not advance
   inside a handshake). Host-clock time is not recorded here: it would
   make the trace nondeterministic. *)

type agg = {
  mutable count : int;
  mutable sim_total : int;
  mutable sim_min : int;
  mutable sim_max : int;
}

type key = string * (string * string) list

type t = (key, agg) Hashtbl.t

let create () = Hashtbl.create 64

let canonical_attrs attrs = List.sort compare attrs

let record t ~name ?(attrs = []) ~sim_start ~sim_end () =
  if sim_end < sim_start then invalid_arg "Obs.Trace.record: span ends before it starts";
  let d = sim_end - sim_start in
  let key = (name, canonical_attrs attrs) in
  match Hashtbl.find_opt t key with
  | Some a ->
      a.count <- a.count + 1;
      a.sim_total <- a.sim_total + d;
      if d < a.sim_min then a.sim_min <- d;
      if d > a.sim_max then a.sim_max <- d
  | None -> Hashtbl.replace t key { count = 1; sim_total = d; sim_min = d; sim_max = d }

(* Time [f] as one span: simulated duration from the [now] closure read
   before and after. *)
let timed t ~name ?attrs ~now f =
  let sim_start = now () in
  Fun.protect ~finally:(fun () -> record t ~name ?attrs ~sim_start ~sim_end:(now ()) ()) f

let merge dst src =
  Hashtbl.iter
    (fun key (s : agg) ->
      match Hashtbl.find_opt dst key with
      | Some d ->
          d.count <- d.count + s.count;
          d.sim_total <- d.sim_total + s.sim_total;
          if s.sim_min < d.sim_min then d.sim_min <- s.sim_min;
          if s.sim_max > d.sim_max then d.sim_max <- s.sim_max
      | None ->
          (* A copy: [src]'s mutable aggregate must not be shared. *)
          Hashtbl.replace dst key
            { count = s.count; sim_total = s.sim_total; sim_min = s.sim_min; sim_max = s.sim_max })
    src

let schema = "tlsharm-obs-trace/1"

let sorted_keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let to_json t =
  let spans =
    List.map
      (fun ((name, attrs) as key) ->
        let a = Hashtbl.find t key in
        Json.Obj
          [
            ("name", Json.Str name);
            ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs));
            ("count", Json.int a.count);
            ("sim_total_s", Json.int a.sim_total);
            ("sim_min_s", Json.int a.sim_min);
            ("sim_max_s", Json.int a.sim_max);
          ])
      (sorted_keys t)
  in
  Json.Obj [ ("schema", Json.Str schema); ("spans", Json.List spans) ]

let to_json_string t = Json.to_string (to_json t)
