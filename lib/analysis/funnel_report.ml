(* Render the fault layer's measurement-loss funnel the way the paper's
   §3 presents its scan funnel: a per-day table from probes issued down
   to observations kept, with losses split by cause. Day indices are
   normalized to the first recorded day so the table reads "day 0, day
   1, …" regardless of the campaign's absolute start. *)

let cause_columns = Faults.Fault.all

let day_row ~day0 funnel day =
  let t = Faults.Funnel.day_totals funnel ~day in
  let cause f =
    match List.assoc_opt f t.Faults.Funnel.t_losses with
    | Some n -> string_of_int n
    | None -> "0"
  in
  [
    string_of_int (day - day0);
    string_of_int t.Faults.Funnel.t_probes;
    string_of_int t.Faults.Funnel.t_attempts;
    string_of_int t.Faults.Funnel.t_retries;
    string_of_int t.Faults.Funnel.t_recovered;
    string_of_int t.Faults.Funnel.t_slow;
    string_of_int t.Faults.Funnel.t_successes;
    string_of_int (Faults.Funnel.lost t);
  ]
  @ List.map cause cause_columns

let render ?(title = "Measurement-loss funnel (per scan day)") funnel =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Report.section title);
  Buffer.add_char buf '\n';
  (match Faults.Funnel.days funnel with
  | [] -> Buffer.add_string buf "no probes recorded\n"
  | day0 :: _ as days ->
      let headers =
        [ "day"; "probes"; "attempts"; "retries"; "recovered"; "slow"; "ok"; "lost" ]
        @ List.map Faults.Fault.to_string cause_columns
      in
      let rows = List.map (day_row ~day0 funnel) days in
      Buffer.add_string buf (Report.table ~headers ~rows);
      let t = Faults.Funnel.totals funnel in
      let probes = float_of_int t.Faults.Funnel.t_probes in
      if t.Faults.Funnel.t_probes > 0 then begin
        Buffer.add_string buf
          (Printf.sprintf "\ntotal: %d probes, %d attempts, %d retries -> %d ok (%s), %d lost (%s)\n"
             t.Faults.Funnel.t_probes t.Faults.Funnel.t_attempts t.Faults.Funnel.t_retries
             t.Faults.Funnel.t_successes
             (Report.fmt_pct (float_of_int t.Faults.Funnel.t_successes /. probes))
             (Faults.Funnel.lost t)
             (Report.fmt_pct (float_of_int (Faults.Funnel.lost t) /. probes)));
        (match t.Faults.Funnel.t_losses with
        | [] -> ()
        | losses ->
            Buffer.add_string buf "loss causes: ";
            Buffer.add_string buf
              (String.concat ", "
                 (List.map
                    (fun (f, n) -> Printf.sprintf "%s %d" (Faults.Fault.to_string f) n)
                    losses));
            Buffer.add_char buf '\n');
        (* Byzantine peers get their own row: responses the peer
           actively corrupted, split between bytes the parsers rejected
           outright and bytes that decoded into protocol nonsense. *)
        let byz_lost f =
          match List.assoc_opt f t.Faults.Funnel.t_losses with
          | Some n -> n
          | None -> 0
        in
        let malformed = byz_lost Faults.Fault.Malformed_response in
        let violations = byz_lost Faults.Fault.Protocol_violation in
        if malformed + violations > 0 then
          Buffer.add_string buf
            (Printf.sprintf
               "byzantine responses: %d probes lost (%s of probes): %d malformed, %d protocol violations\n"
               (malformed + violations)
               (Report.fmt_pct (float_of_int (malformed + violations) /. probes))
               malformed violations)
      end);
  Buffer.add_string buf
    "\nThe paper's Section 3 scans lose a small fraction of each day's probes to\n\
     transient network failures; this funnel is the simulated analog, with the\n\
     retry machinery's recoveries broken out per cause.\n";
  Buffer.contents buf
