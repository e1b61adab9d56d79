(* The campaign runner: operator-sharded, at any worker count.

   The longitudinal campaign is embarrassingly parallel *between*
   clusters of domains that share no TLS secret state, and strictly
   sequential *within* such a cluster: two probes racing on one
   endpoint's session cache (or on one STEK manager's rotation clock)
   would both corrupt the simulation's memory-safety story and break
   determinism. So the world is cut along its shared-state edges first:

   - every HTTPS domain contributes its {!Simnet.World.domain_shard_keys}
     (endpoint identity — which subsumes session-cache, kex-cache and
     farm-pod sharing — plus the key-material identity of every STEK
     manager its farm uses);
   - keys are unioned through {!Union_find}, so domains connected
     transitively (a.com shares an endpoint with b.com, whose operator
     shares STEKs with c.com's) land in one connectivity component;
   - components are packed into shards of balanced *estimated probe
     cost* (longest-processing-time first-fit into ~[n/128] bins),
     not balanced member count: an HTTPS domain-day costs ~60x a
     no-HTTPS one, so count-balanced shards hide an extreme work
     imbalance that made the parallel runner slower than serial.

   Shard ids are assigned heaviest-first. Combined with {!Pool}'s claim
   queue — idle workers keep claiming the next unstarted shard until
   the queue is dry — that yields an LPT work-stealing schedule: no
   worker ever sits idle while a shard is unstarted, and the heaviest
   shards start earliest, so a straggler cannot serialize the tail of
   the run.

   Each shard then runs the ordinary {!Daily_scan.scan_stream} loop with
   private probes on a private {!Simnet.Clock}. Two determinism
   properties fall out, and the test suite checks both:

   - shard composition and per-shard probe seeds depend only on the
     world, never on the worker count, so a 1-worker and an
     8-worker run of the same world write byte-identical run logs;
   - each shard writes only its own stream and its own funnel and
     recorder slots, so the merge needs no synchronization beyond the
     pool's join.

   Per-shard probes draw from per-shard Rng streams (seeded by shard
   id), yet the archive is the one a single pair of probes sweeping the
   whole world would record: every archived field (STEK id, ticket
   hint, (EC)DHE values, trust) is chosen by the server, never by the
   probe's randomness.

   [run] writes into a run log its caller opened and keeps; [collect]
   is the one path that runs a campaign into a temporary log and reads
   it back, for every caller that wants only the campaign. *)

type shard = {
  shard_id : int;
  members : Simnet.World.domain array; (* in world (rank) order *)
  weight : float; (* summed estimated probe cost of the members *)
  max_component : float; (* heaviest unsplittable component packed in *)
}

(* Per-domain probe cost estimate driving the packing. An HTTPS
   domain-day runs two full handshakes (key exchange, ticket mint,
   chain verification); a no-HTTPS domain-day is two refused connects.
   Measured on the bench worlds these differ by ~60x; the constant only
   needs the right order of magnitude for the bins to balance, not
   calibration. *)
let https_cost = 64.0
let estimated_cost d = if Simnet.World.domain_has_https d then https_cost else 1.0

(* Domains per shard, before balancing. *)
let shard_target = 128

(* Group domains into connectivity components via their shared-state
   keys, then pack components into ~[n/shard_target] shards of balanced
   estimated cost: components sorted heaviest first (ties by lowest
   member index), each placed into the currently lightest bin (ties by
   lowest bin index). Wholly deterministic in the world alone —
   independent of any worker count — and the sort+first-fit gives the
   classic LPT bound: a bin exceeds 2x the mean weight only if it holds
   a single component heavier than the mean, which no packing could
   split. Bins are finally renumbered heaviest-first so the run queue
   drains them in LPT order. *)
let shards world =
  let domains = Simnet.World.domains world in
  let n = Array.length domains in
  let uf = Union_find.create () in
  let keys =
    Array.map
      (fun d ->
        let ks = Simnet.World.domain_shard_keys world d in
        (match ks with
        | first :: rest -> List.iter (fun k -> Union_find.union uf first k) rest
        | [] -> ());
        ks)
      domains
  in
  (* Component representative per domain; no-HTTPS domains have no keys
     and are free agents packable anywhere. *)
  let repr i = match keys.(i) with [] -> None | k :: _ -> Some (Union_find.find uf k) in
  (* Bucket domain indices by component, keeping world order within each;
     keyless domains are singleton components. *)
  let comp_order = ref [] in
  let comp_members : (string, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  let singletons = ref [] in
  Array.iteri
    (fun i _ ->
      match repr i with
      | None -> singletons := i :: !singletons
      | Some r -> (
          match Hashtbl.find_opt comp_members r with
          | Some l -> l := i :: !l
          | None ->
              Hashtbl.add comp_members r (ref [ i ]);
              comp_order := r :: !comp_order))
    domains;
  let components =
    List.rev_map (fun r -> List.rev !(Hashtbl.find comp_members r)) !comp_order
    @ List.rev_map (fun i -> [ i ]) !singletons
  in
  let comps =
    List.map
      (fun c ->
        let w = List.fold_left (fun a i -> a +. estimated_cost domains.(i)) 0.0 c in
        (c, w, List.fold_left min max_int c))
      components
    |> Array.of_list
  in
  Array.sort
    (fun (_, wa, ia) (_, wb, ib) -> if wa <> wb then compare wb wa else compare ia ib)
    comps;
  let n_bins =
    if n = 0 then 0 else min (max 1 ((n + shard_target - 1) / shard_target)) (Array.length comps)
  in
  let bin_members = Array.make (max n_bins 1) [] in
  let bin_weight = Array.make (max n_bins 1) 0.0 in
  let bin_maxcomp = Array.make (max n_bins 1) 0.0 in
  Array.iter
    (fun (c, w, _) ->
      let best = ref 0 in
      for b = 1 to n_bins - 1 do
        if bin_weight.(b) < bin_weight.(!best) then best := b
      done;
      bin_members.(!best) <- List.rev_append c bin_members.(!best);
      bin_weight.(!best) <- bin_weight.(!best) +. w;
      if w > bin_maxcomp.(!best) then bin_maxcomp.(!best) <- w)
    comps;
  let order = Array.init n_bins Fun.id in
  let bin_min = Array.map (List.fold_left min max_int) bin_members in
  Array.sort
    (fun a b ->
      if bin_weight.(a) <> bin_weight.(b) then compare bin_weight.(b) bin_weight.(a)
      else compare bin_min.(a) bin_min.(b))
    order;
  Array.mapi
    (fun shard_id b ->
      let idxs = List.sort compare bin_members.(b) in
      {
        shard_id;
        members = Array.of_list (List.map (fun i -> domains.(i)) idxs);
        weight = bin_weight.(b);
        max_component = bin_maxcomp.(b);
      })
    order

let stream_name shard_id = Printf.sprintf "shard-%04d" shard_id

let run ?jobs ?progress ?injector ?funnel ~sink ?(obs = Obs.Recorder.null) world ~days () =
  let clock = Simnet.World.clock world in
  let start = Simnet.Clock.now clock in
  let shard_arr = shards world in
  let n_shards = Array.length shard_arr in
  (* Loss telemetry: one private funnel per shard (written only by the
     worker that owns the shard), absorbed into the caller's funnel
     after the join. The injector itself is shared — its decisions are
     pure hashes of (seed, endpoint, time, attempt), so concurrent
     queries from different workers are race-free and their answers
     independent of scheduling. *)
  let funnels = Array.init n_shards (fun _ -> Faults.Funnel.create ()) in
  (* Telemetry mirrors the funnel discipline: each shard records into a
     private recorder, merged into the caller's recorder after the join,
     in shard order. Counters and histograms sum and gauges max —
     commutative and associative — so the merged registry is
     independent of worker count and scheduling. *)
  let recorders = Array.make n_shards Obs.Recorder.null in
  (* One shard. A stream the run log holds whole is kept: its funnel
     comes from the trailer and nothing is probed (shards are
     state-isolated by construction, so skipping one cannot change
     another's results). It is kept only if {!Daily_scan.decode_stream}
     accepts it, the same rule the loader reads it by: a sealed stream
     this build cannot decode was not written by this run, and is
     refused. Any other stream is scanned afresh with
     private clock and probes: the shard replays the standard daily
     sweep schedule without touching the world clock or any state
     outside its connectivity component. Seeds derive from the shard id,
     so they are stable for a fixed world regardless of [jobs]. *)
  let run_shard (s : shard) =
    let shard_funnel = funnels.(s.shard_id) in
    let shard_obs = Obs.Recorder.fork obs in
    recorders.(s.shard_id) <- shard_obs;
    let name = stream_name s.shard_id in
    match Stream_sink.stream sink name ~days ~decode:(Daily_scan.decode_stream ~n_days:days name) with
    | Stream_sink.Kept (_, f) -> Faults.Funnel.absorb shard_funnel f
    | Stream_sink.Rerun stream ->
        let clock = Simnet.Clock.create ~start () in
        let default_probe =
          Probe.create ~clock ?injector ~funnel:shard_funnel ~obs:shard_obs
            ~seed:(Printf.sprintf "daily-default:shard:%d" s.shard_id) world
        in
        let dhe_probe =
          Probe.dhe_only ~clock ?injector ~funnel:shard_funnel ~obs:shard_obs world
            ~seed:(Printf.sprintf "daily-dhe:shard:%d" s.shard_id)
        in
        let progress day = Option.iter (fun p -> p ~shard:s.shard_id ~day) progress in
        (* The shard span covers the shard's whole campaign on its private
           clock: [days] virtual days of simulated duration. *)
        Obs.Recorder.span shard_obs ~name:"campaign.shard"
          ~attrs:[ ("shard", string_of_int s.shard_id) ]
          ~now:(fun () -> Simnet.Clock.now clock)
          (fun () ->
            Daily_scan.scan_stream ~sink:stream ~obs:shard_obs ~clock ~default_probe ~dhe_probe
              ~domains:s.members ~days ~progress)
  in
  (* Each slot of [funnels] and [recorders] is written only by the
     worker that claimed that shard. A shard that raises fails the run:
     {!Pool.run} starts no further shard, joins the workers and re-raises,
     and the shard's stream stays unsealed for a resume to re-run. A
     [Mismatch] already names its stream; any other exception gets its
     shard id on stderr first. *)
  Pool.run ?jobs n_shards (fun i ->
      let s = shard_arr.(i) in
      try run_shard s with
      | Stream_sink.Mismatch _ as e -> raise e
      | e ->
          Printf.eprintf "campaign: shard %d failed: %s\n%!" s.shard_id (Printexc.to_string e);
          raise e);
  (* Funnel merge in shard order: commutative sums, but a fixed order
     keeps even intermediate states reproducible. *)
  Option.iter (fun f -> Array.iter (Faults.Funnel.absorb f) funnels) funnel;
  Obs.Recorder.gauge_max obs "campaign.days" days;
  Array.iter (Obs.Recorder.merge obs) recorders;
  (* Leave the world clock at the campaign's end: the study's later
     experiments run after the campaign on the world clock. *)
  Simnet.Clock.set clock (start + (days * Simnet.Clock.day))

(* What the loader needs of a campaign's run log: the day range and the
   world size. *)
let manifest world ~days =
  [
    ("start_day", string_of_int (Simnet.Clock.now (Simnet.World.clock world) / Simnet.Clock.day));
    ("n_days", string_of_int days);
    ("n_domains", string_of_int (Array.length (Simnet.World.domains world)));
  ]

let collect ?jobs ?progress ?injector ?funnel ?obs world ~days =
  Stream_sink.with_sink ~manifest:(manifest world ~days) (fun sink ->
      run ?jobs ?progress ?injector ?funnel ~sink ?obs world ~days ();
      Daily_scan.load_stream (Stream_sink.dir sink))
  |> Result.fold ~ok:Fun.id ~error:failwith
