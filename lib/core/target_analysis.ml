(* Section 7.2: the nation-state attacker's target analysis of a single
   high-value operator (Google in the paper). Measures, from the outside:

   - the STEK rollover cadence (connect periodically, watch the key name
     change) and the acceptance window for old tickets;
   - the weighted number of domains whose tickets a single stolen STEK
     opens (the operator's Table 6 STEK service group);
   - the mail coverage: domains whose MX records point at the operator,
     whose inbound mail a STEK-holding observer could decrypt;
   - the contrast case (Yandex in the paper): an operator whose STEK
     never rotates, where one theft decrypts months of traffic. *)

type rollover = {
  observed_keys : string list; (* distinct key names, in order of appearance *)
  rollover_seconds : int option; (* measured issue-period *)
  accept_window_seconds : int option; (* how long an old ticket still resumed *)
}

type t = {
  operator : string;
  flagship : string;
  rollover : rollover;
  stek_group_weight : float; (* weighted domains sharing the STEK *)
  stek_group_sampled : int;
  mx_coverage_weight : float; (* weighted domains with MX at the operator *)
  mx_coverage_fraction : float;
  steks_per_week : float; (* thefts needed for continuous decryption *)
  mail_shares_stek : bool option;
      (* do the operator's TLS mail front-ends use the web STEK?
         (section 7.2: Google does, across SMTP/IMAPS/POP3S);
         None when no mail host is modeled *)
}

(* Watch the flagship's STEK identifier over two days, probing every
   hour. *)
let measure_rollover world ~flagship =
  let horizon = 48 * Simnet.Clock.hour and step = Simnet.Clock.hour in
  let probe = Scanner.Probe.create ~seed:("rollover:" ^ flagship) world in
  let clock = Simnet.World.clock world in
  let start = Simnet.Clock.now clock in
  let keys = ref [] in
  let changes = ref [] in
  let t = ref 0 in
  while !t <= horizon do
    Simnet.Clock.set clock (start + !t);
    let obs, _ = Scanner.Probe.connect probe ~domain:flagship in
    (match obs.Scanner.Observation.stek_id with
    | Some key -> (
        match !keys with
        | last :: _ when String.equal last key -> ()
        | _ ->
            keys := key :: !keys;
            changes := !t :: !changes)
    | None -> ());
    t := !t + step
  done;
  let rollover_seconds =
    (* Gaps between consecutive key *changes*; the first sighting is not
       a change (the key was already in service), so it is dropped. *)
    match List.rev !changes with
    | _first_sighting :: (_ :: _ :: _ as boundaries) ->
        let rec gaps = function
          | a :: (b :: _ as rest) -> (b - a) :: gaps rest
          | _ -> []
        in
        let gaps = gaps boundaries in
        Some (List.fold_left ( + ) 0 gaps / List.length gaps)
    | _ -> None
  in
  (* Acceptance window: how old a ticket can get and still resume. The
     answer depends on where in the rotation period the ticket was
     issued, so sample issuance phases across one period and take the
     maximum — the paper's "accepted for up to 28 hours". *)
  let accept_window =
    let period = Option.value rollover_seconds ~default:(12 * Simnet.Clock.hour) in
    let phases = 6 in
    let best = ref None in
    (* The virtual clock cannot rewind, so each phase is sampled at the
       first moment with the desired period offset after the previous
       walk finished. *)
    let cursor = ref (start + horizon) in
    for i = 0 to phases - 1 do
      let desired = i * period / phases in
      let offset = (desired - (!cursor mod period) mod period + (2 * period)) mod period in
      let issued = !cursor + offset in
      cursor := issued + (4 * Simnet.Clock.day);
      Simnet.Clock.set clock issued;
      let _, outcome = Scanner.Probe.connect probe ~domain:flagship in
      match Scanner.Probe.resumable_of_outcome outcome |> Scanner.Probe.offer_ticket with
      | None -> ()
      | Some offer ->
          let rec walk last age =
            if age > 3 * Simnet.Clock.day then last
            else begin
              Simnet.Clock.set clock (issued + age);
              let obs, _ = Scanner.Probe.connect probe ~domain:flagship ~offer in
              if obs.Scanner.Observation.resumed = Scanner.Observation.By_ticket then
                walk (Some age) (age + Simnet.Clock.hour)
              else last
            end
          in
          (match walk None Simnet.Clock.hour with
          | Some age when Option.value !best ~default:(-1) < age -> best := Some age
          | _ -> ())
    done;
    !best
  in
  { observed_keys = List.rev !keys; rollover_seconds; accept_window_seconds = accept_window }

let analyze study ~operator ~flagship =
  let world = Study.world study in
  let rollover = measure_rollover world ~flagship in
  (* The operator's STEK service group from the Table 6 scan. *)
  let groups = Study.stek_service_groups study in
  let group =
    List.find_opt (fun (g : Analysis.Service_groups.group) -> String.equal g.Analysis.Service_groups.label operator) groups
  in
  let stek_group_weight =
    match group with Some g -> g.Analysis.Service_groups.weighted_size | None -> 0.0
  in
  let stek_group_sampled =
    match group with Some g -> g.Analysis.Service_groups.sampled_size | None -> 0
  in
  (* MX coverage across the whole population. *)
  let domains = Simnet.World.domains world in
  let total_weight = Array.fold_left (fun acc d -> acc +. Simnet.World.domain_weight d) 0.0 domains in
  let mx_weight =
    Array.fold_left
      (fun acc d ->
        if Simnet.World.mx_points_to_google d then acc +. Simnet.World.domain_weight d else acc)
      0.0 domains
  in
  let steks_per_week =
    match rollover.rollover_seconds with
    | Some s when s > 0 -> float_of_int (7 * Simnet.Clock.day) /. float_of_int s
    | _ -> 0.0
  in
  (* Cross-protocol check: handshake with the operator's mail front-end
     and compare the ticket's STEK key name with the flagship's. *)
  let mail_shares_stek =
    let probe = Scanner.Probe.create ~seed:("mail:" ^ operator) world in
    let mail_host =
      Array.to_list domains
      |> List.find_map (fun d ->
             if Simnet.World.mx_points_to_google d then Simnet.World.mx_host world d else None)
    in
    match mail_host with
    | None -> None
    | Some host -> (
        let web_obs, _ = Scanner.Probe.connect probe ~domain:flagship in
        match
          Simnet.World.connect_service_host world ~client:probe.Scanner.Probe.client
            ~hostname:host ~offer:Tls.Client.Fresh
        with
        | Ok mail_outcome ->
            let mail_stek = Option.map Wire.Hex.encode mail_outcome.Tls.Engine.stek_key_name in
            Some (mail_stek <> None && mail_stek = web_obs.Scanner.Observation.stek_id)
        | Error _ -> None)
  in
  {
    operator;
    flagship;
    rollover;
    stek_group_weight;
    stek_group_sampled;
    mx_coverage_weight = mx_weight;
    mx_coverage_fraction = (if total_weight > 0.0 then mx_weight /. total_weight else 0.0);
    steks_per_week;
    mail_shares_stek;
  }

let report (a : t) =
  let r = Analysis.Report.section (Printf.sprintf "Section 7.2: Target Analysis (%s)" a.operator) in
  let dur = function
    | Some s when s >= 3600 && s < 3 * 86_400 ->
        (* Hour precision matters here (14h vs 28h). *)
        Printf.sprintf "%dh" (s / 3600)
    | Some s -> Analysis.Stats.duration_to_string (float_of_int s)
    | None -> "not observed"
  in
  r
  ^ Printf.sprintf
      "\nFlagship probed: %s\n\
       Distinct STEKs observed over 48h: %d\n\
       Measured STEK rollover period: %s   (paper, Google: 14h)\n\
       Old tickets still accepted for:  %s   (paper, Google: 28h)\n\
       STEKs an attacker must steal per week for continuous decryption: %.1f\n\
       Weighted domains opened by one stolen STEK: %.0f (sampled members: %d; paper: 8,973)\n\
       Domains whose MX points at the operator: %.0f weighted = %s of the Top Million\n\
       (paper: over 90,000 domains, 9.1%%)\n\
       Mail front-ends (SMTP/IMAPS) use the same STEK as the web properties: %s\n\
       (paper: yes - one 16-byte key covers web, mail and API traffic alike)\n"
      a.flagship
      (List.length a.rollover.observed_keys)
      (dur a.rollover.rollover_seconds)
      (dur a.rollover.accept_window_seconds)
      a.steks_per_week a.stek_group_weight a.stek_group_sampled a.mx_coverage_weight
      (Analysis.Report.fmt_pct a.mx_coverage_fraction)
      (match a.mail_shares_stek with
      | Some true -> "yes"
      | Some false -> "no"
      | None -> "no modeled mail host")

(* The Yandex contrast: a flagship whose STEK never changes. *)
let static_stek_contrast study ~flagship =
  let spans = Study.stek_spans study in
  match List.find_opt (fun (s : Analysis.Lifetime.domain_spans) -> String.equal s.Analysis.Lifetime.domain flagship) spans with
  | None -> Printf.sprintf "%s: no STEK observations" flagship
  | Some s ->
      Printf.sprintf
        "Contrast (%s): one STEK spanned the entire %d-day observation (paper: Yandex's STEK\n\
         in continuous use for at least 8 months); a single theft decrypts months of traffic."
        flagship s.Analysis.Lifetime.max_span_days
