(** Byzantine response synthesis: deterministic hostile-byte generation
    classified by the real codecs. An injected byzantine fault mutates a
    canned valid transcript at a {!Det}-chosen offset and decodes the
    result with the same total parsers the scanner uses; the verdict
    (typed rejection vs. parsed-but-corrupt) picks the fault cause. All
    draws are pure hashes of the key — stateless, worker-count
    invariant, and side-effect free on simulation Rng streams. *)

val classify : key:string -> Fault.t
(** Always {!Fault.Malformed_response} or {!Fault.Protocol_violation},
    deterministically from [key]. *)

val mutate : key:string -> string -> string
(** The seeded structure-aware mutator (byte flips, truncation,
    zeroed/maximized length runs, garbage splices, version rewrites,
    slice duplication), exposed for the wire fuzzer. Output length never
    exceeds input + 32 bytes. *)

(** What decodes a template's mutated bytes. *)
type target = Handshake_flight | Session_blob | Ticket_blob | Record_stream

val templates : (string * target * string) array
(** Canned valid wire blobs (name, decoding target, bytes): hellos,
    server flights, session state, a sealed ticket, a record stream. *)

val template_stek : Tls.Stek.t
(** The STEK sealing {!templates}' ticket blob. *)

val find_stek : string -> Tls.Stek.t option
(** Resolver for {!templates}' sealed ticket, exposed for the fuzzer. *)
