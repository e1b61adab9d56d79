(* The Section 6 vulnerability-window model.

   A domain's vulnerability window is the span of time around a
   forward-secret connection during which an attacker who obtains the
   server's stored secrets can decrypt it. Each mechanism contributes a
   lower bound, and the domain's overall window is the maximum
   (Section 6.4 / Figure 8):

   - session IDs: how long the server still resumed the session
     (Figure 1 measurement) — the state provably sat in the cache;
   - session tickets: how long the *STEK* lived. Cross-day STEK reuse
     (Figure 3 span) dominates; for daily rotators the bound falls back
     to the measured ticket-acceptance window (Figure 2);
   - (EC)DHE reuse: how long one server value was observed (Figure 5
     spans); same-burst repetition bounds at least the burst gap.

   All bounds are lower bounds: a server that stops *resuming* may still
   hold recoverable state (the paper makes the same caveat). *)

type components = {
  session_id_honored : int; (* seconds; 0 = none *)
  ticket_honored : int;
  stek_span_days : int; (* 0 = no tickets observed *)
  dhe_span_days : int;
  ecdhe_span_days : int;
}

type window = {
  domain : string;
  rank : int;
  weight : float;
  seconds : int; (* the combined window *)
  dominant : string; (* which mechanism set it *)
}

let day = 86_400

let mechanism_windows (c : components) =
  let ticket_window =
    if c.stek_span_days >= 2 then c.stek_span_days * day else c.ticket_honored
  in
  [
    ("session-cache", c.session_id_honored);
    ("session-ticket", ticket_window);
    ("dhe-reuse", if c.dhe_span_days >= 2 then c.dhe_span_days * day else 0);
    ("ecdhe-reuse", if c.ecdhe_span_days >= 2 then c.ecdhe_span_days * day else 0);
  ]

let combine ~domain ~rank ~weight c =
  let mechanisms = mechanism_windows c in
  let dominant, seconds =
    List.fold_left
      (fun (bm, bs) (m, s) -> if s > bs then (m, s) else (bm, bs))
      ("none", 0) mechanisms
  in
  { domain; rank; weight; seconds; dominant }

(* Assemble per-domain components from the experiment outputs, keyed by
   domain name. Domains must have participated in at least one mechanism
   (the paper's 288,252-domain population). *)
let assemble_components ~session_results ~ticket_results ~stek_spans ~dhe_spans ~ecdhe_spans =
  let honored tbl_of results =
    let tbl = Hashtbl.create 4096 in
    List.iter
      (fun (r : Scanner.Resumption_scan.domain_result) ->
        match tbl_of r with
        | Some delay -> Hashtbl.replace tbl r.Scanner.Resumption_scan.domain delay
        | None -> ())
      results;
    tbl
  in
  let id_honored = honored (fun r -> r.Scanner.Resumption_scan.max_honored) session_results in
  let ticket_honored = honored (fun r -> r.Scanner.Resumption_scan.max_honored) ticket_results in
  let span_tbl spans =
    let tbl = Hashtbl.create 4096 in
    List.iter
      (fun (s : Lifetime.domain_spans) ->
        Hashtbl.replace tbl s.Lifetime.domain (s.Lifetime.max_span_days, s.Lifetime.rank, s.Lifetime.weight))
      spans;
    tbl
  in
  let stek_tbl = span_tbl stek_spans in
  let dhe_tbl = span_tbl dhe_spans in
  let ecdhe_tbl = span_tbl ecdhe_spans in
  (* The domain universe: anything appearing in any input. *)
  let names = Hashtbl.create 4096 in
  let note_rank name rank weight = Hashtbl.replace names name (rank, weight) in
  Hashtbl.iter (fun name (_, r, w) -> note_rank name r w) stek_tbl;
  Hashtbl.iter (fun name (_, r, w) -> note_rank name r w) dhe_tbl;
  Hashtbl.iter (fun name (_, r, w) -> note_rank name r w) ecdhe_tbl;
  List.iter
    (fun (r : Scanner.Resumption_scan.domain_result) ->
      if r.Scanner.Resumption_scan.https then
        note_rank r.Scanner.Resumption_scan.domain r.Scanner.Resumption_scan.rank
          r.Scanner.Resumption_scan.weight)
    (session_results @ ticket_results);
  Hashtbl.fold
    (fun name (rank, weight) acc ->
      let get0 tbl = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      let span tbl =
        match Hashtbl.find_opt tbl name with Some (s, _, _) -> s | None -> 0
      in
      let c =
        {
          session_id_honored = get0 id_honored;
          ticket_honored = get0 ticket_honored;
          stek_span_days = span stek_tbl;
          dhe_span_days = span dhe_tbl;
          ecdhe_span_days = span ecdhe_tbl;
        }
      in
      (name, rank, weight, c) :: acc)
    names []

(* [mitigate] transforms components before combining — the Section 8.2
   what-if analyses (cap STEK spans at daily rotation, shorten caches,
   stop reusing ephemerals, ...). *)
let windows_of_components ?(mitigate = fun c -> c) components =
  List.map
    (fun (domain, rank, weight, c) -> combine ~domain ~rank ~weight (mitigate c))
    components

(* Headline shares (Section 6.4): fractions of the population with
   windows above the paper's thresholds. *)
type summary = {
  population : float;
  over_1h : float;
  over_24h : float;
  over_7d : float;
  over_30d : float;
}

let summarize windows =
  let w f = List.fold_left (fun acc x -> if f x then acc +. x.weight else acc) 0.0 windows in
  {
    population = w (fun _ -> true);
    over_1h = w (fun x -> x.seconds > 3600);
    over_24h = w (fun x -> x.seconds > day);
    over_7d = w (fun x -> x.seconds > 7 * day);
    over_30d = w (fun x -> x.seconds > 30 * day);
  }

let cdf_points windows =
  List.map (fun x -> { Stats.value = float_of_int x.seconds; weight = x.weight }) windows
