(* Measurement-loss telemetry: the §3 funnel, live. Every probe records
   its attempt count and outcome here, bucketed by absolute scan day;
   {!Analysis.Funnel_report} renders the result as the paper renders its
   Table "domains in list → connected → trusted" counts.

   Plain mutable counters: each probe owns (or shares, in serial runs) a
   funnel, and parallel campaigns give every shard a private funnel and
   [absorb] them after the join — all sums, so merge order cannot change
   the totals and worker-count invariance survives. *)

type cell = {
  mutable probes : int; (* probe-level operations (one per Probe.connect) *)
  mutable attempts : int; (* connection attempts including retries *)
  mutable retries : int; (* attempts beyond each probe's first *)
  mutable successes : int;
  mutable recovered : int; (* succeeded after at least one faulted attempt *)
  mutable slow : int; (* succeeded on a slow-handshake draw *)
  mutable losses : (Fault.t * int) list; (* per-cause failed probes *)
}

type t = { days : (int, cell) Hashtbl.t }

let create () = { days = Hashtbl.create 64 }

let cell t ~day =
  match Hashtbl.find_opt t.days day with
  | Some c -> c
  | None ->
      let c =
        { probes = 0; attempts = 0; retries = 0; successes = 0; recovered = 0; slow = 0; losses = [] }
      in
      Hashtbl.replace t.days day c;
      c

let bump_loss c f =
  let rec go = function
    | [] -> [ (f, 1) ]
    | (g, n) :: rest when g = f -> (g, n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  c.losses <- go c.losses

let record_attempts c ~attempts =
  c.probes <- c.probes + 1;
  c.attempts <- c.attempts + attempts;
  c.retries <- c.retries + max 0 (attempts - 1)

let record_success t ~day ~attempts ~slow =
  let c = cell t ~day in
  record_attempts c ~attempts;
  c.successes <- c.successes + 1;
  if attempts > 1 then c.recovered <- c.recovered + 1;
  if slow then c.slow <- c.slow + 1

let record_failure t ~day ~attempts fault =
  let c = cell t ~day in
  record_attempts c ~attempts;
  bump_loss c fault

(* Merge [src] into [dst]. Sums only, so absorbing shard funnels in any
   order yields identical totals. *)
let absorb dst src =
  Hashtbl.iter
    (fun day (s : cell) ->
      let d = cell dst ~day in
      d.probes <- d.probes + s.probes;
      d.attempts <- d.attempts + s.attempts;
      d.retries <- d.retries + s.retries;
      d.successes <- d.successes + s.successes;
      d.recovered <- d.recovered + s.recovered;
      d.slow <- d.slow + s.slow;
      List.iter (fun (f, n) -> for _ = 1 to n do bump_loss d f done) s.losses)
    src.days

type totals = {
  t_probes : int;
  t_attempts : int;
  t_retries : int;
  t_successes : int;
  t_recovered : int;
  t_slow : int;
  t_losses : (Fault.t * int) list; (* ordered as Fault.all *)
}

let zero_totals =
  {
    t_probes = 0;
    t_attempts = 0;
    t_retries = 0;
    t_successes = 0;
    t_recovered = 0;
    t_slow = 0;
    t_losses = [];
  }

let sort_losses l =
  List.filter_map
    (fun f -> match List.assoc_opt f l with Some n when n > 0 -> Some (f, n) | _ -> None)
    Fault.all

let add_cell acc (c : cell) =
  {
    t_probes = acc.t_probes + c.probes;
    t_attempts = acc.t_attempts + c.attempts;
    t_retries = acc.t_retries + c.retries;
    t_successes = acc.t_successes + c.successes;
    t_recovered = acc.t_recovered + c.recovered;
    t_slow = acc.t_slow + c.slow;
    t_losses =
      List.fold_left
        (fun l (f, n) ->
          let cur = Option.value ~default:0 (List.assoc_opt f l) in
          (f, cur + n) :: List.remove_assoc f l)
        acc.t_losses c.losses;
  }

let finish tot = { tot with t_losses = sort_losses tot.t_losses }

let days t = Hashtbl.fold (fun d _ acc -> d :: acc) t.days [] |> List.sort compare

let day_totals t ~day =
  match Hashtbl.find_opt t.days day with
  | None -> zero_totals
  | Some c -> finish (add_cell zero_totals c)

let totals t =
  finish (Hashtbl.fold (fun _ c acc -> add_cell acc c) t.days zero_totals)

let lost tot =
  List.fold_left (fun acc (_, n) -> acc + n) 0 tot.t_losses

(* --- Trailer serialization --------------------------------------------------- *)

(* A stream's funnel travels in its campaign trailer so a resumed run
   that keeps the stream reports the same loss table as an uninterrupted
   one. The format
   is deterministic (days sorted, losses in [Fault.all] order) so equal
   funnels always serialize to equal bytes. *)

let to_lines t =
  List.concat_map
    (fun day ->
      let c = Hashtbl.find t.days day in
      Printf.sprintf "cell %d %d %d %d %d %d %d" day c.probes c.attempts c.retries c.successes
        c.recovered c.slow
      :: List.map
           (fun (f, n) -> Printf.sprintf "loss %d %s %d" day (Fault.to_string f) n)
           (sort_losses c.losses))
    (days t)

let of_lines lines =
  let t = create () in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go = function
    | [] -> Ok t
    | line :: rest -> (
        match String.split_on_char ' ' line with
        | [ "cell"; day; probes; attempts; retries; successes; recovered; slow ] -> (
            match
              List.map int_of_string_opt [ day; probes; attempts; retries; successes; recovered; slow ]
            with
            | [ Some day; Some probes; Some attempts; Some retries; Some successes;
                Some recovered; Some slow ] ->
                let c = cell t ~day in
                c.probes <- probes;
                c.attempts <- attempts;
                c.retries <- retries;
                c.successes <- successes;
                c.recovered <- recovered;
                c.slow <- slow;
                go rest
            | _ -> err "funnel: bad cell line %S" line)
        | [ "loss"; day; fault; n ] -> (
            match (int_of_string_opt day, Fault.of_string fault, int_of_string_opt n) with
            | Some day, Some f, Some n when n >= 0 ->
                let c = cell t ~day in
                c.losses <- c.losses @ [ (f, n) ];
                go rest
            | _ -> err "funnel: bad loss line %S" line)
        | _ -> err "funnel: unrecognized line %S" line)
  in
  go lines
