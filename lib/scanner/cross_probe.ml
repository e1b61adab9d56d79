(* The cross-domain state-sharing experiment of Section 5.1: try to
   resume domain [a]'s session on domain [b]. For tractability the paper
   probes, for each site, up to five other sites in its AS and up to five
   sites sharing its IP address, then grows groups transitively; this
   module reproduces that sampling and emits the observed edges. Servers
   simply fall back to a full handshake on an unknown ID, so the probing
   is harmless — exactly the paper's argument. *)

type edge = { from_domain : string; to_domain : string }

type result = {
  participants : string list; (* domains that resumed their own session *)
  edges : edge list; (* a's session resumed on b *)
}

let pick_neighbors rng ~self ~limit candidates =
  let others = List.filter (fun n -> not (String.equal n self)) candidates in
  let arr = Array.of_list others in
  Crypto.Rng.shuffle rng arr;
  Array.to_list (Array.sub arr 0 (min limit (Array.length arr)))

(* Neighbours sampled per domain, by AS and again by IP. *)
let per_side = 5

let run probe ?domains () =
  let world = probe.Probe.world in
  let rng = Crypto.Rng.create ~seed:"cross-probe-neighbors" in
  let clock = Simnet.World.clock world in
  let targets =
    match domains with
    | Some l -> l
    | None -> Array.to_list (Simnet.World.domains world)
  in
  let participants = ref [] in
  let edges = ref [] in
  List.iter
    (fun d ->
      let name = Simnet.World.domain_name d in
      let _, outcome = Probe.connect probe ~domain:name in
      let resumable = Probe.resumable_of_outcome outcome in
      match Probe.offer_session_id resumable with
      | None -> ()
      | Some offer ->
          (* Confirm the domain resumes its own sessions at +1s; only
             those can participate (the paper's 357k baseline). *)
          Simnet.Clock.advance clock 1;
          let self_obs, _ = Probe.connect probe ~domain:name ~offer in
          if self_obs.Observation.resumed = Observation.By_session_id then begin
            participants := name :: !participants;
            let asn_mates =
              pick_neighbors rng ~self:name ~limit:per_side
                (Simnet.World.domains_in_asn world (Simnet.World.domain_asn d))
            in
            let ip_mates =
              pick_neighbors rng ~self:name ~limit:per_side
                (Simnet.World.domains_on_ip world (Simnet.World.domain_ip d))
            in
            List.iter
              (fun mate ->
                let obs, _ = Probe.connect probe ~domain:mate ~offer in
                if obs.Observation.resumed = Observation.By_session_id then
                  edges := { from_domain = name; to_domain = mate } :: !edges)
              (List.sort_uniq compare (asn_mates @ ip_mates))
          end)
    targets;
  { participants = !participants; edges = !edges }
