(* Crypto-kernel call counters.

   The expensive asymmetric kernels (Montgomery exponentiation, EC
   scalar multiplication, X25519) are the simulation's hot floor — the
   ROADMAP's perf PRs need to know how many of each a campaign executes
   before they can claim to have made one cheaper. The kernels live far
   below any place a registry could be threaded to, so they bump global
   [Atomic] counters instead: increments commute, so the totals are
   identical at any worker count, and the counters stay deterministic
   because every counted call is schedule-determined (one pow per DH
   keypair, one scalar mult per ECDHE share, ...) — Rng rejection
   sampling retries draw bytes, not kernel calls.

   Only the public kernel entry points count; the kept seed-era
   [Reference] implementations stay silent when called directly (P-256's
   public multiplications run on them and count once, at the entry
   point). Callers take a
   {!snapshot} before and after a region and publish the {!diff} into a
   {!Metrics} registry under [kernel.*]. *)

type counter = { c_name : string; cell : int Atomic.t }

let make name = { c_name = name; cell = Atomic.make 0 }

let pow_mod = make "pow_mod"
let pow_mod_fixed = make "pow_mod_fixed"
let ec_scalar_mult = make "ec_scalar_mult"
let ec_scalar_mult_base = make "ec_scalar_mult_base"
let x25519_mult = make "x25519_mult"

(* Fixed registration order = fixed render order. *)
let all = [ pow_mod; pow_mod_fixed; ec_scalar_mult; ec_scalar_mult_base; x25519_mult ]

let bump c = Atomic.incr c.cell

let snapshot () = List.map (fun c -> (c.c_name, Atomic.get c.cell)) all

let diff ~before ~after =
  List.map
    (fun (name, b) ->
      let a = Option.value ~default:b (List.assoc_opt name after) in
      (name, a - b))
    before

(* Publish a snapshot diff as [kernel.*] counters. *)
let add_to_metrics metrics counts =
  List.iter (fun (name, n) -> Metrics.add metrics ("kernel." ^ name) n) counts
