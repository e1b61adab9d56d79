(* The fault layer's randomness: pure functions of (seed, coordinates),
   not a stateful generator. A stateful Rng stream would make every
   fault decision depend on how many decisions preceded it — so enabling
   faults, changing the retry policy, or re-sharding a parallel campaign
   would shift all later draws. Hashing the coordinates instead makes
   every decision order-independent: the same (seed, endpoint, time,
   attempt) always draws the same value, whichever worker asks first.
   This is the same trick the world uses for daily list membership
   ([in_list_on_day]) and it is what the ISSUE's "dedicated fault-RNG
   stream" requirement needs: the existing handshake Rng streams are
   never touched. *)

(* First 8 digest bytes as a big-endian 53-bit mantissa in [0,1). *)
let u01 key =
  let h = Crypto.Sha256.digest key in
  let bits = ref 0 in
  for i = 0 to 6 do
    bits := (!bits lsl 8) lor Char.code h.[i]
  done;
  (* 56 bits accumulated; keep 53 so the float conversion is exact. *)
  float_of_int (!bits lsr 3) /. 9007199254740992.0

(* Uniform integer in [lo, hi] (inclusive). *)
let int_in key ~lo ~hi =
  if hi < lo then invalid_arg "Det.int_in: empty range";
  lo + int_of_float (u01 key *. float_of_int (hi - lo + 1))
