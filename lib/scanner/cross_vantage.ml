(* Cross-regional scanning: probe the same domain-days from several
   vantage points and archive the per-region observation rows.

   The paper scanned from one vantage; this extension (after Alashwali
   et al.'s HTTPS-inconsistency measurements) builds one world per
   region — worlds are pure functions of [(config, region)], so every
   region serves the same population and differs only where a
   regionally-inconsistent operator applies a local override — and runs
   the campaign's own daily sweep loop against each. Each vantage probes on
   its own Rng streams (seeded by region name), so adding or removing
   a region never perturbs another region's observations.

   Regions are fully independent of one another, which makes the
   parallel path trivially jobs-invariant: {!Pool} workers compute
   whole regions into per-region slots and the results are assembled
   in the configured region order, so the archive is byte-identical at
   any [--jobs]. *)

type config = {
  base : Simnet.World.config;
      (* base world config; its [region] field is overridden per vantage *)
  regions : Simnet.Region.t list;
  days : int;
}

type t = {
  regions : Simnet.Region.t list;
  days : int;
  rows : Observation.conn list; (* region-major, then day, then sweep *)
}

let rows t = t.rows
let regions t = t.regions

(* The campaign's daily sweep schedule ({!Daily_scan.sweep}) over one
   region's world, keeping every observation in sweep order. The DHE
   sweep is what makes weak-group misconfigurations observable — the
   default sweep almost always negotiates ECDHE. *)
let scan_region ~(base : Simnet.World.config) ~days region =
  let world = Simnet.World.create ~config:{ base with Simnet.World.region } () in
  let default_probe = Probe.create ~seed:("vantage:" ^ region) world in
  let dhe_probe = Probe.dhe_only world ~seed:("vantage-dhe:" ^ region) in
  let out = ref [] in
  let keep ~day:_ _ o = out := o :: !out in
  Daily_scan.sweep ~clock:(Simnet.World.clock world) ~default_probe ~dhe_probe
    ~domains:(Simnet.World.domains world) ~days ~on_default:keep ~on_dhe:keep
    ~end_day:(fun ~day:_ ~present:_ -> ())
    ();
  List.rev !out

let validate (config : config) =
  if config.days < 1 then invalid_arg "Cross_vantage.run: days must be >= 1";
  if config.regions = [] then invalid_arg "Cross_vantage.run: no regions";
  List.iter
    (fun r ->
      if not (Simnet.Region.is_valid r) then
        invalid_arg
          (Printf.sprintf "Cross_vantage.run: unknown region %S (known: %s)" r
             Simnet.Region.names))
    config.regions

let run ?jobs (config : config) =
  validate config;
  let regions = Array.of_list config.regions in
  let slots = Array.make (Array.length regions) [] in
  Pool.run ?jobs (Array.length regions) (fun i ->
      slots.(i) <- scan_region ~base:config.base ~days:config.days regions.(i));
  {
    regions = config.regions;
    days = config.days;
    rows = List.concat (Array.to_list slots);
  }

let save t path = Observation.write_csv path t.rows
let load path = Observation.read_csv path
