(* The bundle the rest of the codebase passes around: one metrics
   registry plus one trace collector. Everything that accepts telemetry
   takes a [Recorder.t]; telemetry off is the [null] recorder, on which
   every operation is a no-op that allocates nothing. Either way the
   simulation is untouched, because a recorder only ever *reads*
   simulation state (it never draws from an Rng or advances a clock).

   [null] is one value shared by every worker domain, so it holds no
   mutable state at all: a variant case, not an empty registry that a
   stray write could fill. *)

type live = { metrics : Metrics.t; trace : Trace.t }
type t = Null | Live of live

let null = Null
let create () = Live { metrics = Metrics.create (); trace = Trace.create () }
let enabled = function Null -> false | Live _ -> true

(* A shard recorder: private to one worker, merged back after the join. *)
let fork = function Null -> Null | Live _ -> create ()

(* [null] has no registry of its own; callers that read one get a fresh
   empty registry, so nothing they do to it can reach [null]. *)
let metrics = function Null -> Metrics.create () | Live r -> r.metrics
let trace = function Null -> Trace.create () | Live r -> r.trace

let incr t name = match t with Null -> () | Live r -> Metrics.incr r.metrics name
let add t name n = match t with Null -> () | Live r -> Metrics.add r.metrics name n
let gauge_max t name v = match t with Null -> () | Live r -> Metrics.gauge_max r.metrics name v

let observe t name ~bounds v =
  match t with Null -> () | Live r -> Metrics.observe r.metrics name ~bounds v

let span t ~name ?attrs ~now f =
  match t with Null -> f () | Live r -> Trace.timed r.trace ~name ?attrs ~now f

let merge dst src =
  match (dst, src) with
  | Live d, Live s ->
      Metrics.merge d.metrics s.metrics;
      Trace.merge d.trace s.trace
  | _ -> ()

let record_span t ~name ?attrs ~sim_start ~sim_end () =
  match t with Null -> () | Live r -> Trace.record r.trace ~name ?attrs ~sim_start ~sim_end ()

(* A point event on the simulated timeline, rendered as a zero-duration
   span: handshake phases happen "between ticks" (the virtual clock does
   not advance inside a handshake), so their count and placement is the
   signal, not their duration. *)
let event t ~name ?attrs ~at () = record_span t ~name ?attrs ~sim_start:at ~sim_end:at ()

let metrics_json_string t = Metrics.to_json_string (metrics t)
let trace_json_string t = Trace.to_json_string (trace t)
