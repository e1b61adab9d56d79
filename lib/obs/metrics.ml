(* Deterministic metrics registry: counters, gauges and fixed-bucket
   histograms, designed so that per-shard registries merge into exactly
   the registry a single-worker run would have produced.

   The determinism rules:

   - counters and histogram cells merge by addition, gauges by maximum —
     all commutative and associative, so the shard-merge order (and the
     worker count behind it) cannot change the result;
   - histogram bucket bounds are fixed at the first observation and must
     agree at every later observation and merge — a mismatch is a
     programming error ([Invalid_argument]), never a silent re-bucket;
   - rendering sorts instrument names, so equal registries render to
     equal bytes regardless of insertion order.

   Values are plain ints on the simulated timeline (counts, seconds);
   nothing in the observability layer reads a wall clock. *)

type hist = {
  bounds : int array; (* ascending upper bounds; last bucket is open *)
  counts : int array; (* length = Array.length bounds + 1 *)
  mutable h_sum : int;
}

type value = Counter of int ref | Gauge of int ref | Hist of hist

type t = { tbl : (string, value) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

let clash name existing wanted =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name (kind_name existing) wanted)

let add t name n =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter r) -> r := !r + n
  | Some v -> clash name v "counter"
  | None -> Hashtbl.replace t.tbl name (Counter (ref n))

let incr t name = add t name 1

let gauge_max t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge r) -> if v > !r then r := v
  | Some existing -> clash name existing "gauge"
  | None -> Hashtbl.replace t.tbl name (Gauge (ref v))

let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe t name ~bounds v =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) ->
      if h.bounds <> bounds then
        invalid_arg (Printf.sprintf "Obs.Metrics: histogram %S bounds changed" name);
      h.counts.(bucket_index h.bounds v) <- h.counts.(bucket_index h.bounds v) + 1;
      h.h_sum <- h.h_sum + v
  | Some existing -> clash name existing "histogram"
  | None ->
      let h = { bounds = Array.copy bounds; counts = Array.make (Array.length bounds + 1) 0; h_sum = 0 } in
      h.counts.(bucket_index h.bounds v) <- 1;
      h.h_sum <- v;
      Hashtbl.replace t.tbl name (Hist h)

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Counter r) -> !r | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.tbl name with Some (Gauge r) -> Some !r | _ -> None

(* Merge [src] into [dst]. Counters and histogram cells add, gauges take
   the maximum; both are commutative and associative, which the qcheck
   suite verifies on random registries. *)
let merge dst src =
  Hashtbl.iter
    (fun name v ->
      match (v, Hashtbl.find_opt dst.tbl name) with
      | Counter s, None -> Hashtbl.replace dst.tbl name (Counter (ref !s))
      | Counter s, Some (Counter d) -> d := !d + !s
      | Gauge s, None -> Hashtbl.replace dst.tbl name (Gauge (ref !s))
      | Gauge s, Some (Gauge d) -> if !s > !d then d := !s
      | Hist s, None ->
          Hashtbl.replace dst.tbl name
            (Hist { bounds = Array.copy s.bounds; counts = Array.copy s.counts; h_sum = s.h_sum })
      | Hist s, Some (Hist d) ->
          if d.bounds <> s.bounds then
            invalid_arg (Printf.sprintf "Obs.Metrics: histogram %S bounds differ across merge" name);
          Array.iteri (fun i n -> d.counts.(i) <- d.counts.(i) + n) s.counts;
          d.h_sum <- d.h_sum + s.h_sum
      | s, Some d -> clash name d (kind_name s))
    src.tbl

let sorted_names t filter =
  Hashtbl.fold (fun name v acc -> if filter v then name :: acc else acc) t.tbl []
  |> List.sort compare

let schema = "tlsharm-obs/1"

let to_json t =
  let counters =
    List.map
      (fun name -> (name, Json.int (counter_value t name)))
      (sorted_names t (function Counter _ -> true | _ -> false))
  in
  let gauges =
    List.filter_map
      (fun name -> Option.map (fun v -> (name, Json.int v)) (gauge_value t name))
      (sorted_names t (function Gauge _ -> true | _ -> false))
  in
  let hists =
    List.map
      (fun name ->
        match Hashtbl.find t.tbl name with
        | Hist h ->
            ( name,
              Json.Obj
                [
                  ("bounds", Json.List (Array.to_list (Array.map Json.int h.bounds)));
                  ("counts", Json.List (Array.to_list (Array.map Json.int h.counts)));
                  ("sum", Json.int h.h_sum);
                ] )
        | _ -> assert false)
      (sorted_names t (function Hist _ -> true | _ -> false))
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists);
    ]

let to_json_string t = Json.to_string (to_json t)

(* Structural equality through the canonical rendering: equal bytes is
   exactly the guarantee the determinism tests need. *)
let equal a b = String.equal (to_json_string a) (to_json_string b)
