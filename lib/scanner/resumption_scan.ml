(* The resumption-lifetime experiments of Sections 4.1 and 4.2
   (Figures 1 and 2): perform an initial handshake with every domain,
   attempt to resume one second later, then every five minutes until the
   server declines or 24 hours have passed.

   In ticket mode the scanner keeps offering the *first* ticket even if
   the server reissues, exactly as the paper does; in session-ID mode it
   keeps offering the original session. All domains advance in lockstep
   so the shared virtual clock moves exactly like the real experiment's
   wall clock. *)

type mode = Session_ids | Tickets

type domain_result = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  stable : bool; (* in the Top Million list every day *)
  https : bool; (* initial connection succeeded *)
  supports : bool; (* set a session ID / issued a ticket *)
  resumed_at_1s : bool;
  max_honored : int option; (* largest delay (seconds) that still resumed *)
  hint : int option; (* advertised ticket lifetime hint *)
}

type pending = {
  p_domain : string;
  p_rank : int;
  p_weight : float;
  p_trusted : bool;
  p_offer : Tls.Client.offer;
  mutable p_max : int option;
  mutable p_alive : bool;
}

let interval = 5 * Simnet.Clock.minute

let run probe ~mode ?(max_delay = 24 * Simnet.Clock.hour) ?domains () =
  let world = probe.Probe.world in
  let clock = Simnet.World.clock world in
  let start = Simnet.Clock.now clock in
  let targets =
    match domains with
    | Some l -> l
    | None -> Array.to_list (Simnet.World.domains world)
  in
  (* Initial handshakes. *)
  let initial =
    List.map
      (fun d ->
        let domain = Simnet.World.domain_name d in
        let obs, outcome = Probe.connect probe ~domain in
        (d, obs, Probe.resumable_of_outcome outcome))
      targets
  in
  (* Which domains support the mechanism, and with what offer. *)
  let make_result d (obs : Observation.conn) ~supports ~resumed_at_1s ~max_honored ~hint =
    {
      domain = Simnet.World.domain_name d;
      rank = Simnet.World.domain_rank d;
      weight = Simnet.World.domain_weight d;
      trusted = obs.Observation.trusted;
      stable = Simnet.World.domain_stable d;
      https = obs.Observation.ok;
      supports;
      resumed_at_1s;
      max_honored;
      hint;
    }
  in
  let pendings = ref [] in
  let finished = ref [] in
  List.iter
    (fun (d, (obs : Observation.conn), resumable) ->
      let supports, offer, hint =
        match mode with
        | Session_ids ->
            (obs.Observation.ok && obs.Observation.session_id_set, Probe.offer_session_id resumable, None)
        | Tickets ->
            ( obs.Observation.ok && obs.Observation.stek_id <> None,
              Probe.offer_ticket resumable,
              obs.Observation.ticket_hint )
      in
      match (supports, offer) with
      | true, Some offer ->
          pendings :=
            {
              p_domain = Simnet.World.domain_name d;
              p_rank = Simnet.World.domain_rank d;
              p_weight = Simnet.World.domain_weight d;
              p_trusted = obs.Observation.trusted;
              p_offer = offer;
              p_max = None;
              p_alive = true;
            }
            :: !pendings;
          finished :=
            (d, obs, hint) :: !finished (* result assembled at the end from pending state *)
      | _ ->
          finished := (d, obs, hint) :: !finished;
          ignore offer)
    initial;
  let pending_by_name = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace pending_by_name p.p_domain p) !pendings;
  (* One probe round at the current clock; [delay] is seconds since the
     initial handshake. Returns the still-alive sublist so late rounds
     are O(alive) — over 24 virtual hours that is 288 rounds, and most
     servers decline within the first few, so rescanning the full pending
     list (dead entries included) every 5 minutes dominated the walk.
     [List.filter] keeps the original iteration order, so the probe's RNG
     consumption matches the full-list sweep exactly. *)
  let probe_round alive delay =
    List.filter
      (fun p ->
        let obs, _ = Probe.connect probe ~domain:p.p_domain ~offer:p.p_offer in
        (match obs.Observation.resumed with
        | Observation.By_session_id when mode = Session_ids -> p.p_max <- Some delay
        | Observation.By_ticket when mode = Tickets -> p.p_max <- Some delay
        | _ ->
            (* A transient failure also ends the walk, matching the
               paper's methodology ("until the site failed to resume"). *)
            p.p_alive <- false);
        p.p_alive)
      alive
  in
  (* +1 second, then every five minutes. *)
  Simnet.Clock.advance clock 1;
  let alive = ref (probe_round !pendings 1) in
  let next = ref interval in
  while !next <= max_delay && !alive <> [] do
    Simnet.Clock.set clock (start + !next);
    alive := probe_round !alive !next;
    next := !next + interval
  done;
  List.rev_map
    (fun (d, obs, hint) ->
      match Hashtbl.find_opt pending_by_name (Simnet.World.domain_name d) with
      | None ->
          let supports =
            match mode with
            | Session_ids -> obs.Observation.ok && obs.Observation.session_id_set
            | Tickets -> obs.Observation.ok && obs.Observation.stek_id <> None
          in
          make_result d obs ~supports ~resumed_at_1s:false ~max_honored:None ~hint
      | Some p ->
          make_result d obs ~supports:true
            ~resumed_at_1s:(p.p_max <> None)
            ~max_honored:p.p_max ~hint)
    !finished
