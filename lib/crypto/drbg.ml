(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256.

   This is the only randomness source in the project: crypto keys,
   simulated-operator behaviour and workload generation all draw from
   seeded instances, so every experiment is reproducible bit-for-bit.
   [fork] derives an independent child generator from a label, which lets
   each simulated entity own a private stream that is insensitive to the
   draw order of its siblings. *)

type t = { mutable k : string; mutable v : string }

let update t provided =
  t.k <- Hmac.sha256 ~key:t.k (t.v ^ "\x00" ^ provided);
  t.v <- Hmac.sha256 ~key:t.k t.v;
  if provided <> "" then begin
    t.k <- Hmac.sha256 ~key:t.k (t.v ^ "\x01" ^ provided);
    t.v <- Hmac.sha256 ~key:t.k t.v
  end

let create ~seed =
  let t = { k = String.make 32 '\x00'; v = String.make 32 '\x01' } in
  update t seed;
  t

let of_int_seed n = create ~seed:(Printf.sprintf "seed:%d" n)

let reseed t entropy = update t entropy

(* Core draw: one HMAC per 32-byte block, written straight into the
   caller's buffer. [generate_into t buf ~pos ~len] advances (K, V)
   exactly as a [generate t len] would, so the two are interchangeable
   mid-stream; hot paths use this to fill preallocated buffers without
   the Buffer/copy churn of the string variant. *)
let generate_into t (buf : Bytes.t) ~pos ~len =
  if len < 0 then invalid_arg "Drbg.generate_into: negative length";
  if pos < 0 || pos > Bytes.length buf - len then
    invalid_arg "Drbg.generate_into: range out of bounds";
  let off = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    t.v <- Hmac.sha256 ~key:t.k t.v;
    let chunk = if !remaining < 32 then !remaining else 32 in
    Bytes.blit_string t.v 0 buf !off chunk;
    off := !off + chunk;
    remaining := !remaining - chunk
  done;
  update t ""

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let buf = Bytes.create n in
  generate_into t buf ~pos:0 ~len:n;
  Bytes.unsafe_to_string buf

let fork t ~label = create ~seed:(generate t 32 ^ "|" ^ label)

(* The full generator state is just (K, V); exposing it lets campaign
   day blocks snapshot and restore the exact position in a stream. *)
let state t = (t.k, t.v)

let restore ~state:(k, v) =
  if String.length k <> 32 || String.length v <> 32 then
    invalid_arg "Drbg.restore: K and V must be 32 bytes";
  { k; v }

(* --- Convenience draws --------------------------------------------------- *)

let byte t =
  (* One block draw; stream-equivalent to [generate t 1] but with only
     the unavoidable HMAC allocations. *)
  t.v <- Hmac.sha256 ~key:t.k t.v;
  let b = Char.code t.v.[0] in
  update t "";
  b

let bits62 t =
  t.v <- Hmac.sha256 ~key:t.k t.v;
  let v = t.v in
  let acc = ref 0 in
  for i = 0 to 7 do
    acc := (!acc lsl 8) lor Char.code (String.unsafe_get v i)
  done;
  update t "";
  !acc land max_int

let int_below t n =
  if n <= 0 then invalid_arg "Drbg.int_below: bound must be positive";
  (* Rejection sampling for an unbiased draw. *)
  let limit = max_int - (max_int mod n) in
  let rec go () =
    let v = bits62 t in
    if v < limit then v mod n else go ()
  in
  go ()

let int_range t lo hi =
  if hi < lo then invalid_arg "Drbg.int_range: empty range";
  lo + int_below t (hi - lo + 1)

let float01 t = float_of_int (bits62 t) /. float_of_int max_int

let bool t ~p = float01 t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Drbg.pick: empty array";
  arr.(int_below t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Drbg.pick_list: empty list"
  | _ -> List.nth l (int_below t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Draw from a discrete distribution given as (weight, value) pairs. *)
let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. choices in
  if total <= 0. then invalid_arg "Drbg.weighted: non-positive total weight";
  let target = float01 t *. total in
  let rec go acc = function
    | [] -> invalid_arg "Drbg.weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if acc +. w >= target then v else go (acc +. w) rest
  in
  go 0. choices

(* Exponential draw with the given mean (for Poisson-ish event spacing). *)
let exponential t ~mean =
  let u = float01 t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let bignum_below t (n : Bignum.t) =
  if Bignum.is_zero n then invalid_arg "Drbg.bignum_below: bound must be positive";
  let bits = Bignum.num_bits n in
  let bytes = (bits + 7) / 8 in
  (* Mask the top byte down to [bits] so the acceptance rate of the
     rejection sampling is at least 1/2. *)
  let top_mask = 0xff lsr (8 - (((bits - 1) mod 8) + 1)) in
  let raw = Bytes.create bytes in
  let rec go () =
    generate_into t raw ~pos:0 ~len:bytes;
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land top_mask));
    let v = Bignum.of_bytes_be (Bytes.unsafe_to_string raw) in
    if Bignum.compare v n < 0 then v else go ()
  in
  go ()

(* A value in [1, n-1], the usual range for DH exponents. *)
let bignum_in_group t (n : Bignum.t) =
  let v = bignum_below t (Bignum.sub n Bignum.one) in
  Bignum.add v Bignum.one
