(* Secret-lifetime estimation from the daily campaign (Sections 4.3-4.4).

   Following the paper, the lifetime of an identifier (a STEK key name or
   a server (EC)DHE value) at a domain is the span between the first and
   the last day the (identifier, domain) pair was observed — which
   absorbs the jitter of load-balanced fleets and transient failures: an
   identifier reappearing after a gap was evidently alive in between. *)

type field = Stek | Dhe | Ecdhe

let field_of_day (r : Scanner.Daily_scan.day_record) = function
  | Stek -> r.Scanner.Daily_scan.stek_id
  | Dhe -> r.Scanner.Daily_scan.dhe_value
  | Ecdhe -> r.Scanner.Daily_scan.ecdhe_value

type domain_spans = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  stable : bool;
  observed_days : int; (* days with a successful observation of the field *)
  distinct_values : int;
  max_span_days : int; (* 0 when the field was never observed *)
}

(* Max identifier span for [field] at one domain. *)
let spans_of_series ~field (s : Scanner.Daily_scan.domain_series) =
  let first_seen = Hashtbl.create 8 and last_seen = Hashtbl.create 8 in
  let observed = ref 0 in
  Array.iter
    (fun (r : Scanner.Daily_scan.day_record) ->
      match field_of_day r field with
      | None -> ()
      | Some v ->
          incr observed;
          if not (Hashtbl.mem first_seen v) then Hashtbl.replace first_seen v r.Scanner.Daily_scan.day;
          Hashtbl.replace last_seen v r.Scanner.Daily_scan.day)
    s.Scanner.Daily_scan.days;
  let max_span =
    Hashtbl.fold
      (fun v first acc -> max acc (Hashtbl.find last_seen v - first + 1))
      first_seen 0
  in
  {
    domain = s.Scanner.Daily_scan.domain;
    rank = s.Scanner.Daily_scan.rank;
    weight = s.Scanner.Daily_scan.weight;
    trusted = s.Scanner.Daily_scan.trusted;
    stable = s.Scanner.Daily_scan.stable;
    observed_days = !observed;
    distinct_values = Hashtbl.length first_seen;
    max_span_days = max_span;
  }

(* Spans for every (stable, trusted) domain in a campaign — the paper's
   analysis population. *)
let analyze ~field (campaign : Scanner.Daily_scan.t) =
  Array.to_list campaign.Scanner.Daily_scan.series
  |> List.filter_map (fun s ->
         if s.Scanner.Daily_scan.stable && s.Scanner.Daily_scan.trusted then
           Some (spans_of_series ~field s)
         else None)

(* CDF input for Figures 3 and 5. *)
let span_points ?(include_unobserved = false) spans =
  List.filter_map
    (fun s ->
      if s.max_span_days = 0 && not include_unobserved then None
      else Some { Stats.value = float_of_int s.max_span_days; weight = s.weight })
    spans

(* Top reusers table (Tables 2-4): domains with span >= [min_days],
   ordered by Alexa rank. *)
let top_reusers ?(min_days = 7) ?(limit = 10) spans =
  List.filter (fun s -> s.max_span_days >= min_days) spans
  |> List.sort (fun a b -> compare a.rank b.rank)
  |> List.filteri (fun i _ -> i < limit)
