(* Burst scans: several connections to each domain in quick succession,
   the experiment behind Table 1 (support for forward secrecy and
   resumption; "N connections, >= 2x same server KEX value / STEK ID")
   and behind the service-group scans of Sections 5.2-5.3 (connections
   spread over a multi-hour window).

   The probes walk the whole domain list once per round so the global
   clock can advance between rounds, exactly like a ZMap sweep. *)

type domain_result = {
  domain : string;
  rank : int;
  weight : float;
  trusted : bool;
  attempts : int;
  successes : int;
  conns : Observation.conn list; (* most recent last *)
}

let result_values ~field r =
  List.filter_map
    (fun (c : Observation.conn) ->
      match field with
      | `Stek -> c.Observation.stek_id
      | `Dhe -> c.Observation.dhe_value
      | `Ecdhe -> c.Observation.ecdhe_value)
    r.conns

(* Did at least two connections present the same value? all of them? *)
let repeats values =
  match values with
  | [] -> (false, false)
  | first :: _ ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
        values;
      let any_repeat = Hashtbl.fold (fun _ n acc -> acc || n >= 2) tbl false in
      let all_same = List.for_all (String.equal first) values in
      (any_repeat && List.length values >= 2, all_same && List.length values >= 2)

(* [run] performs [rounds] sweeps, advancing the clock by [gap] seconds
   between sweeps (paper: 10 connections in quick succession for Table 1;
   10 over six hours for STEK groups; 10 over five hours for DH groups). *)
let run probe ?domains ~rounds ~gap () =
  let world = probe.Probe.world in
  let clock = Simnet.World.clock world in
  let targets =
    match domains with
    | Some l -> l
    | None -> Array.to_list (Simnet.World.domains world)
  in
  let acc =
    List.map
      (fun d ->
        ( d,
          {
            domain = Simnet.World.domain_name d;
            rank = Simnet.World.domain_rank d;
            weight = Simnet.World.domain_weight d;
            trusted = false;
            attempts = 0;
            successes = 0;
            conns = [];
          } ))
      targets
  in
  let acc = ref acc in
  for round = 1 to rounds do
    acc :=
      List.map
        (fun (d, r) ->
          let obs, _ = Probe.connect probe ~domain:r.domain in
          ( d,
            {
              r with
              trusted = r.trusted || obs.Observation.trusted;
              attempts = r.attempts + 1;
              successes = (r.successes + if obs.Observation.ok then 1 else 0);
              conns = r.conns @ [ obs ];
            } ))
        !acc;
    if round < rounds then Simnet.Clock.advance clock gap
  done;
  List.map snd !acc
