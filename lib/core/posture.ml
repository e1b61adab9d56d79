(* A per-domain forward-secrecy posture assessment — the operator-facing
   tool the paper's Section 8 calls for and that (per the paper) no
   scanner of the time provided: given one domain, probe its crypto
   shortcuts cheaply and grade the residual forward-secrecy harm.

   The probes are a condensed version of the study's experiments:

   - cipher support: does a forward-secret suite negotiate at all?
   - ephemeral hygiene: does a 5-connection burst repeat a server
     (EC)DHE value?
   - resumption windows: an exponential probe ladder (1 s, 1 m, 5 m,
     30 m, 1 h, 6 h, 24 h, 48 h) bounds how long session IDs and tickets
     keep resuming — coarse, but enough to grade;
   - STEK stability: does the ticket key name change across a 48-hour
     probe horizon?

   Grades (worst failing criterion wins):
     F  no forward secrecy at all (static key exchange only)
     D  ephemeral values reused, or the STEK never changed across 48 h
     C  resumption honored beyond 24 h
     B  resumption honored beyond 1 h
     A  fresh ephemerals, short resumption windows, rotating STEK *)

type grade = A | B | C | D | F

let grade_to_string = function A -> "A" | B -> "B" | C -> "C" | D -> "D" | F -> "F"

type assessment = {
  domain : string;
  https : bool;
  trusted : bool;
  forward_secret : bool;
  kex_reused : bool;
  session_id_window : int option; (* seconds; None = no ID resumption *)
  ticket_window : int option;
  distinct_steks_over_horizon : int; (* 0 = no tickets *)
  stek_static_over_horizon : bool;
  grade : grade;
  notes : string list;
}

(* The probe ladder: delays after the initial handshake at which we retry
   a resumption. *)
let ladder = [ 1; 60; 300; 1800; 3600; 6 * 3600; 24 * 3600; 48 * 3600 ]

(* How long the STEK-stability probes watch the ticket key name. *)
let horizon = 48 * 3600

let probe_window probe ~domain ~offer_of =
  (* Fresh handshake, then walk the ladder with the captured state;
     [offer_of] builds the resumption offer from the initial outcome. *)
  let clock = Simnet.World.clock probe.Scanner.Probe.world in
  let start = Simnet.Clock.now clock in
  let _, outcome = Scanner.Probe.connect probe ~domain in
  match offer_of (Scanner.Probe.resumable_of_outcome outcome) with
  | None -> None
  | Some offer ->
      let best = ref None in
      List.iter
        (fun delay ->
          Simnet.Clock.set clock (start + delay);
          let obs, _ = Scanner.Probe.connect probe ~domain ~offer in
          match obs.Scanner.Observation.resumed with
          | Scanner.Observation.By_session_id | Scanner.Observation.By_ticket ->
              best := Some delay
          | Scanner.Observation.No_resumption -> ())
        ladder;
      !best

let assess world ~domain =
  let probe = Scanner.Probe.create ~seed:("posture:" ^ domain) world in
  let clock = Simnet.World.clock world in
  (* 1. Support and trust. *)
  let first, _ = Scanner.Probe.connect probe ~domain in
  let https = first.Scanner.Observation.ok in
  if not https then
    {
      domain;
      https = false;
      trusted = false;
      forward_secret = false;
      kex_reused = false;
      session_id_window = None;
      ticket_window = None;
      distinct_steks_over_horizon = 0;
      stek_static_over_horizon = false;
      grade = F;
      notes = [ "no HTTPS reachable" ];
    }
  else begin
    let trusted = first.Scanner.Observation.trusted in
    let forward_secret =
      match first.Scanner.Observation.cipher with
      | Some suite -> Tls.Types.suite_forward_secret suite
      | None -> false
    in
    (* 2. Ephemeral hygiene: a short burst. *)
    let burst =
      List.init 5 (fun _ -> fst (Scanner.Probe.connect probe ~domain))
      |> List.filter_map (fun (o : Scanner.Observation.conn) ->
             match (o.Scanner.Observation.dhe_value, o.Scanner.Observation.ecdhe_value) with
             | Some v, _ | _, Some v -> Some v
             | None, None -> None)
    in
    let kex_reused = fst (Scanner.Burst_scan.repeats burst) in
    (* 3. Resumption windows. *)
    let session_id_window = probe_window probe ~domain ~offer_of:Scanner.Probe.offer_session_id in
    let ticket_window = probe_window probe ~domain ~offer_of:Scanner.Probe.offer_ticket in
    (* 4. STEK stability across the horizon (probe every 6 hours),
       starting from wherever the ladder walks left the clock. *)
    let steks = Hashtbl.create 8 in
    let stek_start = Simnet.Clock.now clock in
    let t = ref 0 in
    while !t <= horizon do
      Simnet.Clock.set clock (stek_start + !t);
      let obs, _ = Scanner.Probe.connect probe ~domain in
      Option.iter (fun k -> Hashtbl.replace steks k ()) obs.Scanner.Observation.stek_id;
      t := !t + (6 * 3600)
    done;
    let distinct = Hashtbl.length steks in
    let stek_static = distinct = 1 in
    (* 5. Grade: worst failing criterion. *)
    let over w limit = match w with Some s -> s >= limit | None -> false in
    let notes = ref [] in
    let note s = notes := s :: !notes in
    let grade =
      if not forward_secret then begin
        note "no forward-secret key exchange offered";
        F
      end
      else if kex_reused then begin
        note "server repeats (EC)DHE values across connections";
        D
      end
      else if stek_static && distinct > 0 then begin
        note (Printf.sprintf "one STEK across the whole %dh horizon" (horizon / 3600));
        D
      end
      else if over session_id_window (24 * 3600) || over ticket_window (24 * 3600) then begin
        note "resumption honored beyond 24 hours";
        C
      end
      else if over session_id_window 3600 || over ticket_window 3600 then begin
        note "resumption honored beyond one hour";
        B
      end
      else begin
        note "short resumption windows and rotating ticket keys";
        A
      end
    in
    {
      domain;
      https;
      trusted;
      forward_secret;
      kex_reused;
      session_id_window;
      ticket_window;
      distinct_steks_over_horizon = distinct;
      stek_static_over_horizon = stek_static && distinct > 0;
      grade;
      notes = List.rev !notes;
    }
  end

let report a =
  let window = function
    | Some s -> Analysis.Stats.duration_to_string (float_of_int s)
    | None -> "none"
  in
  String.concat "\n"
    ([
       Printf.sprintf "posture of %s: grade %s" a.domain (grade_to_string a.grade);
       Printf.sprintf "  https: %b   browser-trusted: %b   forward-secret suite: %b" a.https
         a.trusted a.forward_secret;
       Printf.sprintf "  ephemeral values: %s"
         (if a.kex_reused then "REUSED across connections" else "fresh per connection");
       Printf.sprintf "  session-ID resumption honored: >= %s" (window a.session_id_window);
       Printf.sprintf "  ticket resumption honored:     >= %s" (window a.ticket_window);
       Printf.sprintf "  distinct STEKs over the probe horizon: %d%s" a.distinct_steks_over_horizon
         (if a.stek_static_over_horizon then " (never rotated)" else "");
     ]
    @ List.map (fun n -> "  note: " ^ n) a.notes)
