(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256.

   This is the only randomness source in the project: crypto keys,
   simulated-operator behaviour and workload generation all draw from
   seeded instances, so every experiment is reproducible bit-for-bit.
   [fork] derives an independent child generator from a label, which lets
   each simulated entity own a private stream that is insensitive to the
   draw order of its siblings. *)

(* The whole state lives in one buffer that every draw updates in place:

     [0, 32)    K
     [32, 96)   K's HMAC context (ipad then opad midstate)
     [96, 128)  V
     [128]      0x00, so that V || 0x00 is one slice

   A draw is V = HMAC(K, V) per 32-byte block, then the update with no
   provided data: K = HMAC(K, V || 0x00), the context of the new K, and
   V = HMAC(K, V). Each of those MACs is one inner and one outer
   compression from the stored context, and the new K's pads are
   absorbed once, so a one-block draw costs 8 compressions, the least any
   layout that keeps the SP 800-90A stream can do. Keeping K's context
   means no draw rebuilds it, and writing in place means a draw
   allocates only its output. *)
type t = Bytes.t

let k_pos = 0
let ctx_pos = 32
let v_pos = ctx_pos + Hmac.context_size
let size = v_pos + 33

(* V = HMAC(K, V). *)
let next_v t = Hmac.mac_into t ~ctx:ctx_pos t ~pos:v_pos ~len:32 t ~at:v_pos

let set_k t k =
  Bytes.blit_string k 0 t k_pos 32;
  Hmac.key_into t ~pos:k_pos ~len:32 t ~at:ctx_pos

(* The update with no provided data, in place. *)
let finish_draw t =
  Hmac.mac_into t ~ctx:ctx_pos t ~pos:v_pos ~len:33 t ~at:k_pos;
  Hmac.key_into t ~pos:k_pos ~len:32 t ~at:ctx_pos;
  next_v t

(* The update with provided data, for [create] and [reseed] only: the
   data may be any length, so K takes [mac_parts], which streams a
   message too long for one block. *)
let update t provided =
  let step sep =
    let v = Bytes.sub_string t v_pos 32 in
    set_k t (Hmac.mac_parts (Hmac.context t ~pos:ctx_pos) [ v; sep; provided ]);
    next_v t
  in
  step "\x00";
  if provided <> "" then step "\x01"

(* K = 0^32 with its context, V = 0x01^32. *)
let initial =
  let t = Bytes.make size '\x00' in
  set_k t (String.make 32 '\x00');
  Bytes.fill t v_pos 32 '\x01';
  t

let create ~seed =
  let t = Bytes.copy initial in
  update t seed;
  t

let of_int_seed n = create ~seed:(Printf.sprintf "seed:%d" n)

let reseed t entropy = update t entropy

(* Core draw: one HMAC per 32-byte block, written straight into the
   caller's buffer. [generate_into t buf ~pos ~len] advances the state
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
    next_v t;
    let chunk = if !remaining < 32 then !remaining else 32 in
    Bytes.blit t v_pos buf !off chunk;
    off := !off + chunk;
    remaining := !remaining - chunk
  done;
  finish_draw t

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate: negative length";
  let buf = Bytes.create n in
  generate_into t buf ~pos:0 ~len:n;
  Bytes.unsafe_to_string buf

let fork t ~label = create ~seed:(generate t 32 ^ "|" ^ label)

(* The SP 800-90A state is just (K, V); exposing it lets campaign day
   blocks snapshot and restore the exact position in a stream. *)
let state t = (Bytes.sub_string t k_pos 32, Bytes.sub_string t v_pos 32)

let restore ~state:(k, v) =
  if String.length k <> 32 || String.length v <> 32 then
    invalid_arg "Drbg.restore: K and V must be 32 bytes";
  let t = Bytes.make size '\x00' in
  set_k t k;
  Bytes.blit_string v 0 t v_pos 32;
  t

(* --- Convenience draws --------------------------------------------------- *)

(* One block draw each, stream-equivalent to [generate t 1] and
   [generate t 8] but allocation-free. *)
let byte t =
  next_v t;
  let b = Char.code (Bytes.get t v_pos) in
  finish_draw t;
  b

let bits62 t =
  next_v t;
  let v = Int64.to_int (Bytes.get_int64_be t v_pos) in
  finish_draw t;
  v land max_int

let int_below t n =
  if n <= 0 then invalid_arg "Drbg.int_below: bound must be positive";
  (* Rejection sampling for an unbiased draw. *)
  let limit = max_int - (max_int mod n) in
  let v = ref (bits62 t) in
  while !v >= limit do
    v := bits62 t
  done;
  !v mod n

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
